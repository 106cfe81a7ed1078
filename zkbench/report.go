package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/zkml"
)

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects a run's metrics in the order they were set, for the
// human-readable listing.
type metrics struct {
	order []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name, unit string, v float64) {
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// emit prints every metric by name with its unit, then the result line,
// which must be the last line of standard output.
func emit(ms *metrics, t *tally, notes []string) result {
	for name, m := range ms.m {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.op(fmt.Errorf("metric %s was not measured", name))
			ms.m[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	attempted, failed := t.counts()
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: ms.m}
	for _, n := range notes {
		fmt.Println(n)
	}
	for _, r := range t.reasons {
		fmt.Println("FAILED:", r)
	}
	for _, name := range ms.order {
		m := ms.m[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zkbench: encoding result:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	return res
}

// host is the fingerprint printed with every run.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Workers    int    `json:"engine_workers"`
}

func hostFingerprint() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Workers:    zkml.Parallelism(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from procfs.
func peakRSSMiB(pid string) (float64, error) { return procStatusMiB(pid, "VmHWM:") }

// procStatusMiB reads one kB field of /proc/<pid>/status in MiB.
func procStatusMiB(pid, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// rssSampler samples a process's resident set (VmRSS) every 20ms until
// stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := procStatusMiB(pid, "VmRSS:"); err == nil {
				s.samples = append(s.samples, v)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// rssNote summarizes resident-set samples and the peak (VmHWM).
func rssNote(samples []float64, peak float64) string {
	q1, q3 := quartiles(samples)
	return fmt.Sprintf("rss (MiB): %d samples, median %.1f, q1 %.1f, q3 %.1f; peak (VmHWM) %.1f", len(samples), median(samples), q1, q3, peak)
}

// span is one timed call in a traced run. Spans of one request share Req;
// set-up and kernel spans have Req 0. Parent 0 marks a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory until the run ends.
// Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent can be named before it is recorded.
func (t *tracer) id() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id (0 reserves one).
func (t *tracer) add(id, parent, req int, name string, start, end time.Time) span {
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// write saves the spans, sorted by start, with the host fingerprint.
func (t *tracer) write(path string, h host) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return writeJSONFile(path, map[string]any{"host": h, "spans": spans})
}
