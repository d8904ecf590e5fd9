// Command perfbench is the repository's serving benchmark. It runs one
// seeded workload against the real engine — a pcserve process over
// loopback HTTP, or an in-process promptcache.Client — checks the
// outputs against a fresh reference client, and prints every metric by
// name and unit, ending with one JSON line.
//
//	perfbench --workload rag-stream --seed 1 --seconds 10 --trace 0 \
//	    --pcserve .bench_build/pcserve --workdir .bench_build/run
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same load
// and then a sequential traced pass, and prints the per-layer metrics.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/promptcache"
)

// maxConns bounds concurrent connections or callers: one per core.
func maxConns() int { return runtime.NumCPU() }

// A trace-0 run sets up at least minSetups times, and again while the
// set-ups so far took less than setupBudget, up to maxSetups, reporting
// the median; the last set-up serves the load. Cheap set-ups get more
// repeats, so their median is as steady as that of the costly ones.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// moreSetups reports whether a trace-0 run that has set up n times,
// taking spent in all, sets up again.
func moreSetups(n int, spent time.Duration) bool {
	return n < minSetups || n < maxSetups && spent < setupBudget
}

// abandonAfter drops a request that has waited this long for a
// connection; its rung has already failed the SLO by then, and dropping
// bounds the time an overloaded rung takes to drain.
const abandonAfter = 500 * time.Millisecond

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: rag-stream, unshared-prefill, batch-decode or tier-churn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	bin := flag.String("pcserve", ".bench_build/pcserve", "pcserve binary")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for tier files and span traces")
	flag.Parse()

	var w *workload
	for _, c := range workloads() {
		if c.Name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// A hung run must end within the 180 s one run may take; the server
	// child dies with this process.
	time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 175s")
		os.Exit(3)
	})
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, bin: *bin, workdir: *workdir, trace: *trace == 1}
	res, table, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range table {
		fmt.Println(line)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output mismatch")
		os.Exit(1)
	}
}

// bench is one invocation.
type bench struct {
	w       *workload
	seed    uint64
	dur     time.Duration
	bin     string
	workdir string
	trace   bool

	metrics map[string]metric
	notes   map[string]string // sample count per metric
	lines   []string          // printed after the metrics, outside the JSON
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setP50 records a median with its sample count.
func (b *bench) setP50(name, unit string, d dist) {
	b.set(name, unit, d.P50)
	b.notes[name] = fmt.Sprintf("n=%d", d.N)
}

// p50Of records the median of xs and returns its summary.
func (b *bench) p50Of(name, unit string, xs []float64) dist {
	d := summarise(xs)
	b.setP50(name, unit, d)
	return d
}

// info prints a tail with its sample count and percentile, outside the
// JSON metrics.
func (b *bench) info(name, unit string, d dist) {
	b.lines = append(b.lines, fmt.Sprintf("# %-26s %14s %-10s n=%d p%.1f", name, strconv.FormatFloat(d.Tail, 'g', 6, 64), unit, d.N, d.TailPct))
}

// loadResult is the load phase's outcome.
type loadResult struct {
	outs          []outcome   // every operation of the measured phase
	rungs         [][]outcome // per open-loop rung
	closed        []outcome   // the closed loop, which latency metrics describe
	sustained     []bool
	inputs        []input
	before, after promptcache.Snapshot
	window        time.Duration // the closed loop's wall time
	rss           float64
	mismatches    int
}

func (b *bench) run() (*result, []string, error) {
	b.metrics = map[string]metric{}
	b.notes = map[string]string{}
	w := b.w

	// Set-up: start the server (or build the client) and register the
	// schemas, several times in a trace-0 run; the last one serves.
	var setups []float64
	var spent time.Duration
	var tgt *target
	for k := 0; k == 0 || !b.trace && moreSetups(k, spent); k++ {
		if tgt != nil {
			tgt.close()
			runtime.GC()
		}
		t, d, err := setupTarget(w, b.seed, b.bin, b.workdir, k)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		tgt = t
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer tgt.close()

	lr, err := b.load(tgt)
	if err != nil {
		return nil, nil, err
	}
	for _, o := range lr.outs {
		if o.status == statusFailed {
			b.lines = append(b.lines, fmt.Sprintf("# first failure: %v", o.err))
			break
		}
	}
	all := tally(lr.outs)
	if all.Sent == 0 {
		return nil, nil, errors.New("no requests were sent")
	}
	mismatches := lr.mismatches
	res := &result{Attempted: all.Sent, Failed: all.Failed + all.Shed}
	if !b.trace {
		b.endToEnd(lr, setups)
	} else {
		tr, err := b.tracedRun(lr)
		if err != nil {
			return nil, nil, err
		}
		mismatches += tr.mismatches
		res.Attempted += tr.requests
		b.perLayer(lr, tr)
	}
	res.Failed += mismatches
	res.Correct = mismatches == 0
	res.Metrics = b.metrics
	return res, b.table(), nil
}

// load runs the warm-up, the measured phase and the output check.
func (b *bench) load(tgt *target) (*loadResult, error) {
	w := b.w
	// Warm-up: seeded, untimed and sequential, so speculation's draft
	// tables, mined modules and tier residency reach the same steady
	// state on every run with this seed before anything is measured.
	warm := w.inputs(b.seed, streamWarmup, w.Warmup)
	for _, o := range closedLoop(warm, time.Hour, tgt.send) {
		if o.status != statusOK {
			return nil, fmt.Errorf("warm-up request failed: %v", o.err)
		}
	}
	lr := &loadResult{}
	var err error
	if lr.before, err = tgt.snapshot(); err != nil {
		return nil, err
	}
	if w.HTTP {
		// Against a server process the generator only sends and reads,
		// so it keeps to one thread and leaves the cores to pcserve.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	// The ladder's rungs take a share of the measured time, the closed
	// loop the rest.
	closedFor := b.dur
	var sizes []int
	total := 0
	if w.Rates != nil {
		per := time.Duration(ladderShare * float64(b.dur) / float64(len(w.Rates)))
		closedFor -= per * time.Duration(len(w.Rates))
		for _, rate := range w.Rates {
			sizes = append(sizes, max(1, int(rate*per.Seconds())))
			total += sizes[len(sizes)-1]
		}
	}
	// Enough inputs for any closed loop this size can complete; the
	// ladder's are the last total of them.
	lr.inputs = w.inputs(b.seed, streamInputs, total+1<<14)
	off := len(lr.inputs) - total
	// The latency phase comes first, straight after the warm-up, so the
	// overloaded top rung cannot leave a backlog, mined modules or draft
	// tables behind that differ from run to run: one caller sends each
	// input as soon as the previous reply ends. The end-to-end metrics
	// describe this phase.
	lr.closed = closedLoop(lr.inputs[:off], closedFor, tgt.send)
	lr.outs = append(lr.outs, lr.closed...)
	// The rate ladder: a seeded Poisson open loop at each fixed rate, on
	// at most nproc connections. Its rungs are reported, not gated; see
	// README.md.
	for k, rate := range w.Rates {
		ins := lr.inputs[off : off+sizes[k]]
		outs, backlog := openLoop(ins, schedule(b.seed, k, len(ins), rate), maxConns(), abandonAfter, tgt.send)
		rung := make([]rungOutcome, 0, len(outs))
		abandoned := 0
		for j := range outs {
			outs[j].idx += off
			if outs[j].status == statusAbandoned {
				abandoned++
				continue
			}
			rung = append(rung, rungOutcome{OK: outs[j].status == statusOK, TTFT: outs[j].ttft, TPOT: outs[j].tpot})
		}
		lr.sustained = append(lr.sustained, meetsSLO(rung, abandoned, backlog, maxConns(), w.Limits))
		lr.rungs = append(lr.rungs, outs)
		lr.outs = append(lr.outs, outs...)
		off += sizes[k]
	}
	lr.window = wallSpan(lr.closed)
	if lr.after, err = tgt.snapshot(); err != nil {
		return nil, err
	}
	if lr.rss, err = tgt.rssMB(); err != nil {
		return nil, err
	}
	if lr.mismatches, err = checkOutputs(w, b.seed, lr.outs, lr.inputs); err != nil {
		return nil, err
	}
	return lr, nil
}

// wallSpan is the wall time from the first due time to the last completion.
func wallSpan(outs []outcome) time.Duration {
	var first, last time.Time
	for _, o := range outs {
		if first.IsZero() || o.due.Before(first) {
			first = o.due
		}
		if end := o.due.Add(o.e2e); end.After(last) {
			last = end
		}
	}
	return last.Sub(first)
}

// latency summarises the closed loop the way the end-to-end metrics
// describe it: its completed requests, their TTFT, TPOT and end-to-end
// distributions, output tokens, and goodput against the workload's
// limits.
type latency struct {
	ttft, tpot, e2e dist
	ok              int
	tokens          int
	goodput         float64 // requests within both limits per second
}

func (lr *loadResult) latency(w *workload) latency {
	var l latency
	var ttft, tpot, e2e []float64
	met := 0
	for _, o := range lr.closed {
		if o.status != statusOK || o.register {
			continue
		}
		l.ok++
		ttft = append(ttft, ms(o.ttft))
		if o.tpot > 0 {
			tpot = append(tpot, ms(o.tpot))
		}
		e2e = append(e2e, ms(o.e2e))
		l.tokens += o.tokens
		if o.ttft <= w.Limits.TTFT && o.tpot <= w.Limits.TPOT {
			met++
		}
	}
	if w.Batch {
		// Batch replies carry text, not token counts: the scheduler's
		// decoded-token counter over the window is exact.
		l.tokens = int(lr.after.Scheduler.TokensDecoded - lr.before.Scheduler.TokensDecoded)
	}
	l.ttft, l.tpot, l.e2e = summarise(ttft), summarise(tpot), summarise(e2e)
	l.goodput = float64(met) / lr.window.Seconds()
	return l
}

// endToEnd fills the trace-0 metrics. Tails are printed with their
// sample count and percentile but kept out of the JSON metrics, which
// are gated; README.md gives the measured reason.
func (b *bench) endToEnd(lr *loadResult, setups []float64) {
	w := b.w
	b.set("setup_s", "s", medianOf(setups))
	b.notes["setup_s"] = fmt.Sprintf("n=%d", len(setups))
	l := lr.latency(w)
	b.setP50("ttft_p50_ms", "ms", l.ttft)
	b.setP50("tpot_p50_ms", "ms", l.tpot)
	b.setP50("e2e_p50_ms", "ms", l.e2e)
	b.info("ttft_tail_ms", "ms", l.ttft)
	b.info("tpot_tail_ms", "ms", l.tpot)
	sec := lr.window.Seconds()
	b.set("tok_per_s", "1/s", float64(l.tokens)/sec)
	b.set("req_per_s", "1/s", float64(l.ok)/sec)
	b.set("slo_rate_rps", "1/s", l.goodput)
	b.notes["slo_rate_rps"] = fmt.Sprintf("within %v TTFT and %v TPOT", w.Limits.TTFT, w.Limits.TPOT)
	for k, rung := range lr.rungs {
		var t, p []float64
		for _, o := range rung {
			if o.status == statusOK {
				t = append(t, ms(o.ttft))
				p = append(p, ms(o.tpot))
			}
		}
		dt, dp := summarise(t), summarise(p)
		c := tally(rung)
		b.lines = append(b.lines, fmt.Sprintf("# rung %d: sent=%d ok=%d abandoned=%d ttft p50=%.2f tail=%.2f (p%.1f) tpot p50=%.3f tail=%.3f",
			k, c.Sent, c.OK, c.Abandoned, dt.P50, dt.Tail, dt.TailPct, dp.P50, dp.Tail))
	}
	if w.Rates != nil {
		b.lines = append(b.lines, fmt.Sprintf("# highest sustained rung: %g req/s of %v (sustained %v)",
			sustainedRate(w.Rates, lr.sustained), w.Rates, lr.sustained))
	}
	c := tally(lr.outs)
	b.set("ok_frac", "frac", 1-float64(c.Failed+c.Shed+lr.mismatches)/float64(c.Sent))
	b.notes["ok_frac"] = fmt.Sprintf("sent=%d failed=%d shed=%d mismatched=%d", c.Sent, c.Failed, c.Shed, lr.mismatches)
	b.set("rss_peak_mb", "MB", lr.rss)
}

// sustainedRate is the rate of the highest rung that met the SLO, 0
// when none did.
func sustainedRate(rates []float64, sustained []bool) float64 {
	if k := highestSustained(sustained); k >= 0 {
		return rates[k]
	}
	return 0
}

// table renders every metric with its unit and sample notes.
func (b *bench) table() []string {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%g trace=%t", b.w.Name, b.seed, b.dur.Seconds(), b.trace)}
	for _, n := range names {
		m := b.metrics[n]
		lines = append(lines, fmt.Sprintf("%-28s %14s %-10s %s", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, b.notes[n]))
	}
	return append(lines, b.lines...)
}

// tracedRun replays the run's first inputs through the traced mirrors
// and writes the spans.
func (b *bench) tracedRun(lr *loadResult) (*tracedResult, error) {
	w := b.w
	n := min(w.Traced, len(lr.inputs))
	warm := w.inputs(b.seed, streamWarmup, w.TracedWarmup)
	tr, err := tracedPass(w, b.seed, b.workdir, warm, lr.inputs[:n])
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	path := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, b.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	return tr, nil
}
