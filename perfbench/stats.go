package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// samples is a set of measurements of one quantity.
type samples []float64

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 for an empty set).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo] + frac*(c[lo+1]-c[lo])
}

// tailPercentile returns the highest of p99.9, p99, p90 and p50 that has
// at least ten samples beyond it.
func (s samples) tailPercentile() (float64, bool) {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if float64(len(s))*(1-p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// provenance records the host and the run; every output file carries it.
type provenance struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Trace       bool    `json:"trace"`
	SetupReps   int     `json:"setup_reps"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	CPUModel    string  `json:"cpu_model"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Started     string  `json:"started"`
	WallSeconds float64 `json:"wall_seconds"`
}

func hostProvenance(cfg config) provenance {
	return provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		SetupReps:  cfg.setupReps,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo where it exists.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// tree was a checkout the toolchain could stamp; "unknown" otherwise.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// span is one timed call into a layer, recorded by the benchmark's own code
// in traced runs. Times are nanoseconds since the run's trace epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Name: name, Start: now})
	return t.next
}

// end closes the span with the given id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// done returns the recorded spans.
func (t *tracer) done() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timeSetups runs setup reps times, keeps the last instance, closes each
// earlier one before the next starts, and records setup_s as the median set-up time.
func timeSetups[T any](rep *report, reps int, setup func() (T, error), closeFn func(T)) (T, error) {
	var (
		cur   T
		times samples
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeFn(cur)
		}
		start := time.Now()
		env, err := setup()
		if err != nil {
			return env, err
		}
		times = append(times, time.Since(start).Seconds())
		cur = env
	}
	rep.setDist("setup_s", "s", times)
	return cur, nil
}
