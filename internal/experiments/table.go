package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Table is one experiment's result table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes explains the expectation the numbers should meet.
	Notes string
	// Trees optionally carries per-tree outcome records from portfolio
	// solves (E24 fills it). Text and CSV rendering ignore it; the
	// hgpbench -json document emits it as the experiment's `trees`
	// field (schema hgpbench/2).
	Trees []TreeOutcome
}

// TreeOutcome is one decomposition tree's execution record from a
// portfolio solve: which bench configuration ran it, whether its DP
// completed, was pruned by the incumbent bound, or failed, how long it
// ran, and — for pruned trees — how far through its tables the DP got
// before the bound aborted it (0 = immediately, 1 = ran to the end).
type TreeOutcome struct {
	Config    string  `json:"config"`
	N         int     `json:"n"`
	Tree      int     `json:"tree"`
	Outcome   string  `json:"outcome"` // "done" | "pruned" | "failed"
	WallMS    float64 `json:"wall_ms"`
	AbortFrac float64 `json:"abort_frac"`
}

// AddRow appends a row, formatting each value with %v (floats get %.4g).
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	if t.Notes != "" {
		fmt.Fprintf(&sb, "-- %s\n", t.Notes)
	}
	return sb.String()
}

// Config controls experiment sizes.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce tables exactly.
	Seed int64
	// Quick shrinks instance sizes and trial counts for tests and CI.
	Quick bool
	// Workers is the concurrency budget handed to the hgp/hgpt solvers
	// under test (0 = GOMAXPROCS for the pipeline, sequential for bare
	// tree DPs). Tables are identical at every worker count; only the
	// wall-clock changes.
	Workers int
	// Prune turns on incumbent portfolio pruning (hgp.Solver.Prune) in
	// every pipeline solve the suite runs (the hgpbench -prune flag).
	// The identity battery pins pruned results bit-identical to
	// unpruned ones, so tables do not change — only solve-time columns
	// move. E21 additionally reports its own on/off A/B regardless of
	// this flag.
	Prune bool
	// Budget, when non-zero, replaces E22's default deadline sweep with
	// this single per-solve budget (the hgpbench -budget flag). Timing-
	// dependent rows are inherently non-reproducible across machines.
	Budget time.Duration
	// Tier, when non-empty, restricts E22's ladder to one rung
	// ("full_dp" or "baseline" — the hgpbench -tier flag).
	Tier string
}

func (c Config) pick(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// WriteCSV emits the table as CSV with an `experiment` column prepended,
// so multiple tables concatenate into one machine-readable stream.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"experiment"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, r...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
