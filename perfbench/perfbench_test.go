package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/promptcache"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads() {
		a := w.inputs(7, streamInputs, 40)
		b := w.inputs(7, streamInputs, 40)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different inputs", w.Name)
		}
		if reflect.DeepEqual(a, w.inputs(8, streamInputs, 40)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.Name)
		}
		if !reflect.DeepEqual(w.schemas(7), w.schemas(7)) {
			t.Errorf("%s: same seed gave different schemas", w.Name)
		}
		if reflect.DeepEqual(a, w.inputs(7, streamWarmup, 40)) {
			t.Errorf("%s: warm-up inputs repeat the measured ones", w.Name)
		}
	}
}

func TestScheduleDeterministicAtExactRate(t *testing.T) {
	a := schedule(3, 1, 120, 12)
	if !reflect.DeepEqual(a, schedule(3, 1, 120, 12)) {
		t.Fatal("same seed gave different arrival times")
	}
	if reflect.DeepEqual(a, schedule(4, 1, 120, 12)) {
		t.Fatal("seeds 3 and 4 gave identical arrival times")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not increasing at %d", i)
		}
	}
	// Every seed offers exactly n/rate seconds of traffic.
	if d := a[len(a)-1] - 10*time.Second; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("last arrival at %v, want 10s", a[len(a)-1])
	}
}

func TestSetupRepeats(t *testing.T) {
	cases := []struct {
		n     int
		spent time.Duration
		want  bool
	}{
		{1, 10 * time.Second, true},               // below the minimum
		{minSetups, 10 * time.Second, false},      // costly set-ups stop at the minimum
		{minSetups, 200 * time.Millisecond, true}, // cheap ones repeat
		{maxSetups, 200 * time.Millisecond, false},
	}
	for _, c := range cases {
		if got := moreSetups(c.n, c.spent); got != c.want {
			t.Errorf("moreSetups(%d, %v) = %v, want %v", c.n, c.spent, got, c.want)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	d := summarise(xs)
	if d.N != 100 || d.P50 != 50.5 || d.Tail != 90 || d.TailPct != 90 {
		t.Fatalf("summarise(1..100) = %+v, want n=100 p50=50.5 tail=90 at p90", d)
	}
	beyond := 0
	for _, x := range xs {
		if x > d.Tail {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	// 25 samples: the tail moves to p60, still with ten beyond it.
	ys := make([]float64, 25)
	for i := range ys {
		ys[i] = float64(i + 1)
	}
	if d := summarise(ys); d.Tail != 15 || d.TailPct != 60 {
		t.Fatalf("summarise(1..25) tail = %v at p%v, want 15 at p60", d.Tail, d.TailPct)
	}
	// Too few samples for ten beyond: report the maximum.
	if d := summarise([]float64{3, 1, 2}); d.Tail != 3 || d.TailPct != 100 {
		t.Fatalf("summarise of 3 samples = %+v, want max at p100", d)
	}
}

func TestSLORungSelection(t *testing.T) {
	lim := sloLimits{TTFT: 100 * time.Millisecond, TPOT: 5 * time.Millisecond}
	good := rungOutcome{OK: true, TTFT: 20 * time.Millisecond, TPOT: time.Millisecond}
	rung := func(n int, extra ...rungOutcome) []rungOutcome {
		out := make([]rungOutcome, n)
		for i := range out {
			out[i] = good
		}
		return append(out, extra...)
	}
	// 99 good + 1 slow out of 100 meets the 99% rule...
	if !meetsSLO(rung(99, rungOutcome{OK: true, TTFT: time.Second}), 0, 0, 2, lim) {
		t.Error("99 of 100 within limits should be sustained")
	}
	// ...but a shed request is a miss, so one more miss fails it.
	shed := rungOutcome{OK: false}
	if meetsSLO(rung(98, shed, rungOutcome{OK: true, TPOT: time.Second}), 0, 0, 2, lim) {
		t.Error("a shed request must count as a miss")
	}
	if meetsSLO(rung(49, shed), 0, 0, 2, lim) {
		t.Error("1 shed of 50 is below 99%")
	}
	// Abandoned requests count in the denominator.
	if meetsSLO(rung(99), 2, 0, 2, lim) {
		t.Error("2 abandoned of 101 is below 99%")
	}
	// A growing backlog fails the rung even when latencies pass.
	if meetsSLO(rung(100), 0, 3, 2, lim) {
		t.Error("backlog beyond the slack must fail the rung")
	}
	for _, c := range []struct {
		sustained []bool
		want      int
	}{
		{[]bool{true, true, false}, 1},
		{[]bool{true, false, true}, 2},
		{[]bool{false, false, false}, -1},
		{[]bool{true}, 0},
	} {
		if got := highestSustained(c.sustained); got != c.want {
			t.Errorf("highestSustained(%v) = %d, want %d", c.sustained, got, c.want)
		}
	}
	rates := []float64{2, 8, 48}
	if got := sustainedRate(rates, []bool{true, true, false}); got != 8 {
		t.Errorf("sustainedRate = %v, want 8", got)
	}
	if got := sustainedRate(rates, []bool{false, false, false}); got != 0 {
		t.Errorf("sustainedRate with no sustained rung = %v, want 0", got)
	}
}

func TestKernelCostFormulas(t *testing.T) {
	check := func(name string, gotF, gotB, wantF, wantB int64) {
		t.Helper()
		if gotF != wantF || gotB != wantB {
			t.Errorf("%s = (%d flops, %d bytes), want (%d, %d)", name, gotF, gotB, wantF, wantB)
		}
	}
	f, b := matMulCost(2, 3, 4) // 2×3 · 3×4: 24 outputs of 3 multiply-adds
	check("matMul 2x3x4", f, b, 48, 4*(6+12+8))
	f, b = matVecCost(64, 176)
	check("matVec 64x176", f, b, 2*64*176, 4*(64*176+64+176))
	f, b = dotCost(64, 4) // Dot4: four rows against one vector
	check("dot4 64", f, b, 512, 4*64*5)
	f, b = outputHeadCost(100, 8, 2)
	check("outputHead 100x8, 2 lanes", f, b, 3200, 4*(800+16+200))
	f, b = elementwiseCost(10, 4, 2)
	check("rmsnorm 10", f, b, 40, 4*10*3)
	// Attention: 2 query rows after 3 cached rows see 4 and 5 rows.
	a := &tensor.AttendArgs{Q: tensor.NewMatrix(2, 8), Past: 3, NHeads: 2, HeadDim: 4, Width: 4}
	f, b = attendCost(a)
	check("attend", f, b, 4*4*2*(4+5), 4*(2*2*8+2*5*4))
}

// TestTimedBackendBitIdentical pins the decorator's contract: the same
// logits and tokens as the bare backend, and the same worker count.
func TestTimedBackendBitIdentical(t *testing.T) {
	inner, err := tensor.Select("parallel")
	if err != nil {
		t.Fatal(err)
	}
	tb := newTimedBackend(inner)
	if tb.Workers() != inner.Workers() || tb.Name() != inner.Name() {
		t.Fatalf("decorator reports %s/%d workers, inner %s/%d", tb.Name(), tb.Workers(), inner.Name(), inner.Workers())
	}
	schema := `<schema name="s"><module name="doc">` + words(rngFor(1, 1), 'd', docPool, 96) + `</module></schema>`
	prompt := `<prompt schema="s"><doc/>` + words(rngFor(1, 2), 'q', questionPool, 24) + `</prompt>`
	run := func(bk tensor.Backend) *promptcache.Response {
		m, err := newModel()
		if err != nil {
			t.Fatal(err)
		}
		c, err := newClient(m, core.WithBackend(bk))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RegisterSchema(schema); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Infer(context.Background(), promptcache.Request{Prompt: prompt, Gen: promptcache.GenConfig{MaxTokens: 12}})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	want, got := run(inner), run(tb)
	if len(want.Logits) == 0 || len(got.Logits) != len(want.Logits) {
		t.Fatalf("logit lengths %d vs %d", len(got.Logits), len(want.Logits))
	}
	for i := range want.Logits {
		if math.Float32bits(got.Logits[i]) != math.Float32bits(want.Logits[i]) {
			t.Fatalf("logit %d: %v with the decorator, %v without", i, got.Logits[i], want.Logits[i])
		}
	}
	if !reflect.DeepEqual(got.Tokens, want.Tokens) {
		t.Fatalf("tokens %v with the decorator, %v without", got.Tokens, want.Tokens)
	}
	if tb.k[kMatMul].calls.Load() == 0 || tb.k[kAttend].calls.Load() == 0 || tb.k[kOutputHead].calls.Load() == 0 {
		t.Fatal("decorator saw no matmul, attend or output-head calls")
	}
	if tb.busyTime() <= 0 {
		t.Fatal("decorator recorded no kernel time")
	}
}
