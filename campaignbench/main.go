// Command campaignbench is the repository's end-to-end benchmark. It runs one
// named workload in this process — set-up, a timed phase of whole rounds,
// then correctness checks outside the timed window — and prints one JSON
// result line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s,
// missions_per_s, sim_s_per_s, max_rss_mb); with -trace 1 they are the
// per-layer split, timed from this package around calls into each module's
// public functions (the program itself carries no tracing). A machine stamp
// line precedes the result so figures from different boxes are never
// compared. See README.md for the workloads and the metric mapping.
//
// Usage (normally through run.py, which builds this package first):
//
//	campaignbench -workload paper-exact -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procStart approximates process start, for progress lines.
var procStart = time.Now()

// maxRun bounds one run's wall time.
const maxRun = 170 * time.Second

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scratch is the directory the run may write into (recordings, state
	// files); it is removed when the run ends.
	scratch string
	// tiny shrinks every workload for the self-test.
	tiny bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, b *bench) error{
	"paper-exact":   runPaperExact,
	"served-replay": runServedReplay,
	"dispatch-memo": runDispatchMemo,
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload name: paper-exact, served-replay or dispatch-memo")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 25, "length of the timed phase in seconds (whole rounds are completed)")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	flag.StringVar(&opt.scratch, "scratch", ".bench_build/work", "directory the run may write into")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "campaignbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = traceFlag == 1

	// A run must end within three minutes. Should a mission never finish
	// (see inputs.go), fail loudly before that instead of being killed.
	time.AfterFunc(maxRun, func() {
		fmt.Fprintf(os.Stderr, "campaignbench: run exceeded %v; a mission is not terminating\n", maxRun)
		os.Exit(3)
	})
	res, err := run(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	fmt.Println("stamp:", mustJSON(machineStamp()))
	fmt.Println(mustJSON(res))
}

// run executes one workload end to end and assembles its result line.
func run(ctx context.Context, opt options) (*result, error) {
	wl, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have paper-exact, served-replay, dispatch-memo)", opt.workload)
	}
	if !(opt.seconds > 0) {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(opt.scratch, opt.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	opt.scratch = dir

	b := &bench{opt: opt, layers: make(map[string]float64)}
	if err := wl(ctx, b); err != nil {
		return nil, err
	}
	return b.result()
}

// round is one timed round: a fixed batch of operations whose wall time is
// measured on its own, so clean-up between rounds stays outside the clock.
type round struct {
	wall     time.Duration
	missions int
	flightS  float64
}

// bench accumulates one run's measurements, operation counts and check
// outcomes.
type bench struct {
	opt       options
	setups    []float64
	rounds    []round
	attempted int
	failed    int
	checkErrs []error
	layers    map[string]float64
	// rssMB is the peak resident set when the timed phase ended; the
	// checks that follow build their own references and are not counted.
	rssMB float64
}

// setupRepeats is how many complete set-ups a run performs; setup_s is
// their median, so one slow start (page cache, a busy neighbour) does not
// decide the figure.
const setupRepeats = 3

// setup builds the workload's state setupRepeats times, timing each build
// from its own start, and keeps only the last: every earlier one is
// released before the next starts.
func (b *bench) setup(build func() (release func(), err error)) (release func(), err error) {
	n := setupRepeats
	if b.opt.tiny {
		n = 1
	}
	for i := 0; i < n; i++ {
		if release != nil {
			release()
			// Collect the released build now, so the next one does not
			// start on a heap still holding it.
			runtime.GC()
		}
		start := time.Now()
		release, err = build()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
		logf("set-up %d/%d: %.3fs", i+1, n, b.setups[len(b.setups)-1])
	}
	return release, nil
}

// timed runs whole rounds for about the run length: it stops once another
// round would end farther from the limit than the rounds so far do, that is
// once their summed wall time plus half a mean round reaches the limit. A
// round is never cut short, so every run attempts an exact multiple of one
// round's operations.
func (b *bench) timed(fn func(i int) round) {
	var total time.Duration
	limit := time.Duration(b.opt.seconds * float64(time.Second))
	for i := 0; i == 0 || total+total/time.Duration(2*i) < limit; i++ {
		r := fn(i)
		b.rounds = append(b.rounds, r)
		total += r.wall
	}
	b.rssMB = maxRSSMB()
	logf("timed phase: %d rounds, %.2fs", len(b.rounds), total.Seconds())
}

// ops records attempted and failed operations.
func (b *bench) ops(attempted, failed int) {
	b.attempted += attempted
	b.failed += failed
}

// check records the outcome of one correctness check.
func (b *bench) check(name string, err error) {
	if err != nil {
		b.checkErrs = append(b.checkErrs, fmt.Errorf("%s: %w", name, err))
		logf("check %s: FAILED: %v", name, err)
		return
	}
	logf("check %s: ok", name)
}

// layer records one per-layer metric for the traced run.
func (b *bench) layer(name string, v float64) {
	if _, ok := layers[name]; !ok {
		panic("campaignbench: undeclared per-layer metric " + name)
	}
	b.layers[name] = v
}

// timedWall is the summed wall time of the timed phase.
func (b *bench) timedWall() time.Duration {
	var total time.Duration
	for _, r := range b.rounds {
		total += r.wall
	}
	return total
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the four user-facing metrics. Rates are the median over
// rounds of each round's own rate: every round repeats the same operations,
// so the median is the same quantity as the pooled ratio with one slow
// round (a busy neighbour on a shared host) unable to move it.
func (b *bench) endToEnd() map[string]metric {
	var perMission, perSim []float64
	for _, r := range b.rounds {
		w := r.wall.Seconds()
		perMission = append(perMission, float64(r.missions)/w)
		perSim = append(perSim, r.flightS/w)
	}
	return map[string]metric{
		"setup_s":        {median(b.setups), "s"},
		"missions_per_s": {median(perMission), "missions/s"},
		"sim_s_per_s":    {median(perSim), "sim_s/s"},
		"max_rss_mb":     {b.rssMB, "MB"},
	}
}

// result assembles the output line for the run's mode.
func (b *bench) result() (*result, error) {
	if b.attempted < 1 {
		return nil, errors.New("no operations attempted")
	}
	e2e := b.endToEnd()
	logf("end-to-end: %s", mustJSON(e2e))
	res := &result{
		Correct:   len(b.checkErrs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   e2e,
	}
	if b.opt.trace {
		res.Metrics = make(map[string]metric, len(layers))
		for name, l := range layers {
			res.Metrics[name] = metric{b.layers[name], l.unit}
		}
	}
	for _, err := range b.checkErrs {
		logf("correctness: %v", err)
	}
	return res, nil
}

// maxRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs (0 for none, the value a layer a
// workload never crosses reports).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%7.2fs] %s\n", time.Since(procStart).Seconds(), fmt.Sprintf(format, args...))
}

// mustJSON renders v as one line of JSON.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// scratchPath joins elements under the run's scratch directory.
func (b *bench) scratchPath(elem ...string) string {
	return filepath.Join(append([]string{b.opt.scratch}, elem...)...)
}
