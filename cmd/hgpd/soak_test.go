package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The kill-restart soak: a real hgpd process driven at 4× solve
// capacity by a real hgpload process, SIGKILLed mid-load, restarted on
// the same -state-dir, and verified to (a) come back with a warm cache —
// the first repeat request is a hit and decomp_builds_total stays 0 —
// and (b) survive a second overload phase with every response either a
// success or a machine-readably-tagged shed, bounded p99, and no solve
// slots stuck afterwards. HGP_SOAK_SECONDS scales each load phase
// (default 3; CI uses longer), HGP_SOAK_RACE=1 builds the binaries with
// the race detector.
func TestKillRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test spawns real processes; skipped with -short")
	}
	phase := 3 * time.Second
	if v := os.Getenv("HGP_SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs <= 0 {
			t.Fatalf("HGP_SOAK_SECONDS=%q: want a positive integer", v)
		}
		phase = time.Duration(secs) * time.Second
	}

	bin := t.TempDir()
	hgpd := buildBinary(t, bin, "hgpd")
	hgpload := buildBinary(t, bin, "hgpload")
	stateDir := t.TempDir()

	// Phase 1: daemon under 4× closed-loop load (8 workers vs. 2 solve
	// slots), killed without warning partway through.
	d1 := startDaemon(t, hgpd, stateDir)
	load1 := startLoad(t, hgpload, d1.base, phase, nil)

	// Kill only after at least one solve finished AND its decomposition
	// reached disk — otherwise there is nothing to recover.
	waitStat(t, d1.base, 10*time.Second, func(st soakStats) bool {
		return st.counter("partition_ok_total") >= 1 && st.gauge("snapshot_entries") >= 1
	})
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d1.cmd.Wait() // SIGKILL: nonzero exit expected
	sum1 := load1.wait(t)
	// The generator saw transport errors when the daemon died; every
	// response it did get must still be classifiable (no untagged 5xx).
	if sum1.Unexpected != 0 {
		t.Fatalf("phase 1: %d unexpected responses (accepted-then-dropped?)", sum1.Unexpected)
	}
	if sum1.OK == 0 {
		t.Fatal("phase 1 produced no successful solves; the soak is vacuous")
	}

	// Restart on the same state dir: warm-cache recovery.
	d2 := startDaemon(t, hgpd, stateDir)
	st := waitStat(t, d2.base, 10*time.Second, func(soakStats) bool { return true })
	if st.gauge("snapshot_warm_entries") < 1 {
		t.Fatalf("restarted daemon loaded %d warm entries, want >= 1", st.gauge("snapshot_warm_entries"))
	}
	if got := st.counter("decomp_builds_total"); got != 0 {
		t.Fatalf("decomp_builds_total = %d before any request, want 0", got)
	}
	// First repeat request (seed 1 = hgpload's first body) must be a hit.
	rec := postJSON(t, d2.base+"/v1/partition", loadBody(1))
	if rec.status != http.StatusOK {
		t.Fatalf("repeat request after restart = %d (%s)", rec.status, rec.body)
	}
	var pr struct {
		CacheHit bool `json:"cache_hit"`
	}
	if err := json.Unmarshal(rec.body, &pr); err != nil || !pr.CacheHit {
		t.Fatalf("first repeat request after restart must be a cache hit: %s", rec.body)
	}
	st = waitStat(t, d2.base, 5*time.Second, func(soakStats) bool { return true })
	if got := st.counter("decomp_builds_total"); got != 0 {
		t.Fatalf("decomp_builds_total = %d after warm hit, want 0 (embedding re-ran)", got)
	}

	// Phase 2: overload the restarted daemon with SLO gates on — every
	// response must be a 200 or a tagged shed, p99 bounded.
	sum2 := startLoad(t, hgpload, d2.base, phase, []string{
		"-strict", "-slo-p99", "30s", "-slo-success", "0.05",
	}).wait(t)
	if sum2.Unexpected != 0 || sum2.Errors != 0 {
		t.Fatalf("phase 2: %d unexpected, %d transport errors", sum2.Unexpected, sum2.Errors)
	}

	// No stuck slots or waiters after the storm.
	st = waitStat(t, d2.base, 10*time.Second, func(st soakStats) bool {
		return st.Queue.InUse == 0 && st.Queue.Waiting == 0 && st.Queue.Depth == 0
	})

	// Graceful exit: SIGTERM drains and flushes, exit code 0.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	out := filepath.Join(dir, name)
	args := []string{"build"}
	if os.Getenv("HGP_SOAK_RACE") == "1" {
		args = append(args, "-race")
	}
	args = append(args, "-o", out, "hierpart/cmd/"+name)
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	if raw, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, raw)
	}
	return out
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/hgpd → repo root
}

type daemon struct {
	cmd  *exec.Cmd
	base string
}

var listenRE = regexp.MustCompile(`listening on (\S+:\d+)`)

// startDaemon launches hgpd on an ephemeral port with a small solve
// ceiling and a tight flusher interval, and parses the resolved address
// from its log output.
func startDaemon(t *testing.T, bin, stateDir string) *daemon {
	t.Helper()
	return startDaemonArgs(t, bin,
		"-addr", "127.0.0.1:0",
		"-state-dir", stateDir,
		"-snapshot-interval", "50ms",
		"-adaptive",
		"-concurrency", "2",
		"-queue", "4",
		"-timeout", "5s",
		"-drain-wait", "20s",
	)
}

// startDaemonArgs launches hgpd with the given flags (which must
// include -addr), parses the resolved listen address from its log
// output, and waits for the daemon to report healthy.
func startDaemonArgs(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		base := "http://" + addr
		waitHealthy(t, base)
		return &daemon{cmd: cmd, base: base}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon never logged its listen address")
		return nil
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never became healthy: %v", base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// loadSummary mirrors hgpload's JSON report (the fields the soaks need).
type loadSummary struct {
	Requests      int `json:"requests"`
	OK            int `json:"ok"`
	Errors        int `json:"errors"`
	Unexpected    int `json:"unexpected"`
	PeerFetchHits int `json:"peer_fetch_hits"`
	Failovers     int `json:"failovers"`
}

type loadRun struct {
	cmd    *exec.Cmd
	stdout *bytes.Buffer
	stderr *bytes.Buffer
}

// startLoad launches hgpload at 4× the daemon's solve capacity.
func startLoad(t *testing.T, bin, base string, dur time.Duration, extra []string) *loadRun {
	t.Helper()
	args := []string{
		"-addr", base,
		"-mode", "closed",
		"-workers", "8", // 4× the daemon's -concurrency 2
		"-duration", dur.String(),
		"-seeds", "4",
		"-timeout-ms", "2000",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return &loadRun{cmd: cmd, stdout: &stdout, stderr: &stderr}
}

func (lr *loadRun) wait(t *testing.T) loadSummary {
	t.Helper()
	if err := lr.cmd.Wait(); err != nil {
		t.Fatalf("hgpload: %v\nstderr: %s\nstdout: %s", err, lr.stderr, lr.stdout)
	}
	var sum loadSummary
	if err := json.Unmarshal(lr.stdout.Bytes(), &sum); err != nil {
		t.Fatalf("parsing hgpload summary: %v\n%s", err, lr.stdout)
	}
	return sum
}

// soakStats is the slice of /v1/stats the soak asserts on.
type soakStats struct {
	Queue struct {
		Depth   int64 `json:"depth"`
		InUse   int   `json:"in_use"`
		Waiting int   `json:"waiting"`
	} `json:"queue"`
	Metrics struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	} `json:"metrics"`
	Cluster struct {
		Enabled bool `json:"enabled"`
		Peers   []struct {
			Peer    string `json:"peer"`
			Self    bool   `json:"self"`
			Healthy bool   `json:"healthy"`
		} `json:"peers"`
		FetchHits int64 `json:"fetch_hits"`
	} `json:"cluster"`
}

func (st soakStats) counter(name string) int64 { return st.Metrics.Counters[name] }
func (st soakStats) gauge(name string) int64   { return st.Metrics.Gauges[name] }

// waitStat polls /v1/stats until ok(st) holds, failing after the wait.
func waitStat(t *testing.T, base string, wait time.Duration, ok func(soakStats) bool) soakStats {
	t.Helper()
	deadline := time.Now().Add(wait)
	var last soakStats
	for {
		resp, err := http.Get(base + "/v1/stats")
		if err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(raw, &last); err == nil && ok(last) {
				return last
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition never held; last = %+v", last)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// loadBody reproduces hgpload's request body for the given seed, so the
// soak can replay the generator's first instance and assert a warm hit.
func loadBody(seed int64) []byte {
	body := map[string]any{
		"hierarchy":  map[string]any{"deg": []int{2, 4}, "cm": []float64{8, 2, 0}},
		"n":          8,
		"demands":    []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		"seed":       seed,
		"trees":      2,
		"timeout_ms": 2000,
	}
	var edges [][3]float64
	for b := 0; b < 8; b += 4 {
		for i := b; i < b+4; i++ {
			for j := i + 1; j < b+4; j++ {
				edges = append(edges, [3]float64{float64(i), float64(j), 10})
			}
		}
	}
	edges = append(edges, [3]float64{0, 4, 1})
	body["edges"] = edges
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return raw
}

type httpResult struct {
	status int
	body   []byte
}

func postJSON(t *testing.T, url string, body []byte) httpResult {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpResult{status: resp.StatusCode, body: raw}
}

// Flag validation: nonsense values must be rejected at startup, before
// any listener is opened.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative concurrency", []string{"-concurrency", "-1"}},
		{"queue below -1", []string{"-queue", "-2"}},
		{"cache below -1", []string{"-cache", "-2"}},
		{"zero timeout", []string{"-timeout", "0s"}},
		{"negative max-timeout", []string{"-max-timeout", "-1s"}},
		{"max-timeout below timeout", []string{"-timeout", "1m", "-max-timeout", "1s"}},
		{"negative workers", []string{"-workers", "-3"}},
		{"zero max-states", []string{"-max-states", "0"}},
		{"zero max-vertices", []string{"-max-vertices", "0"}},
		{"zero max-edges", []string{"-max-edges", "0"}},
		{"zero drain-wait", []string{"-drain-wait", "0s"}},
		{"zero snapshot-interval", []string{"-snapshot-interval", "0s"}},
		{"negative max-heap-bytes", []string{"-max-heap-bytes", "-1"}},
		{"state-dir without cache", []string{"-state-dir", "/tmp/x", "-cache", "-1"}},
		{"peers without self", []string{"-peers", "http://a:1,http://b:2"}},
		{"self without peers", []string{"-self", "http://a:1"}},
		{"self not in peers", []string{"-peers", "http://a:1,http://b:2", "-self", "http://c:3"}},
		{"peers without cache", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-cache", "-1"}},
		{"zero peer-timeout", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-peer-timeout", "0s"}},
		{"negative peer-retries", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-peer-retries", "-1"}},
		{"zero peer-breaker-cooldown", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-peer-breaker-cooldown", "0s"}},
		{"replication below 1", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-replication", "0"}},
		{"negative hint-queue", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-hint-queue", "-1"}},
		{"zero hint-replay-interval", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-hint-replay-interval", "0s"}},
		{"negative repair-interval", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-repair-interval", "-1s"}},
		{"peers and peers-file together", []string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1", "-peers-file", "/tmp/does-not-matter"}},
	}
	if testing.Short() {
		t.Skip("spawns the built binary; skipped with -short")
	}
	bin := buildBinary(t, t.TempDir(), "hgpd")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("args %v: err = %v (output %s), want exit code 2", tc.args, err, out)
			}
			if !strings.Contains(string(out), "must") && !strings.Contains(string(out), "requires") {
				t.Fatalf("args %v: error message %q lacks guidance", tc.args, out)
			}
		})
	}
}

// TestFlagTableMatchesHelp: API.md's flag table calls itself the
// complete `hgpd -h` surface, so its flag names must be exactly the
// flags the built binary prints.
func TestFlagTableMatchesHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the built binary; skipped with -short")
	}
	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := exec.Command(buildBinary(t, t.TempDir(), "hgpd"), "-h").CombinedOutput()
	names := func(re, text string) []string {
		var got []string
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(text, -1) {
			got = append(got, m[1])
		}
		sort.Strings(got)
		return got
	}
	table := names("(?m)^\\| `(-[a-z-]+)` \\|", string(doc))
	help := names(`(?m)^  (-[a-z-]+)`, string(out))
	if len(help) == 0 {
		t.Fatalf("no flags parsed from hgpd -h:\n%s", out)
	}
	if strings.Join(table, " ") != strings.Join(help, " ") {
		t.Fatalf("API.md flag table != hgpd -h\ntable: %v\nhelp:  %v", table, help)
	}
}
