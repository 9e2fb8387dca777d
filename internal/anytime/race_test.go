//go:build race

package anytime

const raceEnabled = true
