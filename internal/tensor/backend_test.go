package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The backend contract is bit-identity, so every comparison in this file
// is math.Float32bits equality — a one-ulp difference is a failure, not
// noise. Shapes deliberately include odd and tiny dimensions, where
// sharding boundaries (chunk remainders, workers > elements) are most
// likely to misalign.

// bitsEqual reports the first elementwise bit mismatch, if any.
func bitsEqual(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// challengers are the non-reference backends under test: varied worker
// counts exercise chunk remainders (3 workers over odd sizes) and the
// degenerate 1-worker schedule.
func challengers() []Backend {
	return []Backend{NewParallel(4), NewParallel(3), NewParallel(1)}
}

// fillSigned fills data with a deterministic mix of normals and exact
// zeros: the kernels' v == 0 skips are part of the accumulation
// contract, so inputs must actually hit them.
func fillSigned(r *rng.RNG, data []float32) {
	r.FillNormal(data, 1)
	for i := range data {
		if r.Intn(8) == 0 {
			data[i] = 0
		}
	}
}

func TestBackendsBitIdenticalMatMul(t *testing.T) {
	r := rng.NewString("backend/matmul")
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 13, 1}, {80, 96, 80}, {65, 33, 129}}
	for _, sh := range shapes {
		n, k, mm := sh[0], sh[1], sh[2]
		a, b := NewMatrix(n, k), NewMatrix(k, mm)
		fillSigned(r, a.Data)
		fillSigned(r, b.Data)
		want := NewMatrix(n, mm)
		Scalar().MatMul(want, a, b)
		for _, bk := range challengers() {
			got := NewMatrix(n, mm)
			bk.MatMul(got, a, b)
			if i, ok := bitsEqual(want.Data, got.Data); !ok {
				t.Fatalf("MatMul %dx%dx%d workers=%d: bit mismatch at %d", n, k, mm, bk.Workers(), i)
			}
		}
	}
}

func TestBackendsBitIdenticalMatVecT(t *testing.T) {
	r := rng.NewString("backend/matvect")
	shapes := [][2]int{{1, 1}, {7, 3}, {64, 65}, {257, 129}, {512, 384}}
	for _, sh := range shapes {
		in, out := sh[0], sh[1]
		w := NewMatrix(in, out)
		h := make([]float32, in)
		fillSigned(r, w.Data)
		fillSigned(r, h)
		want := make([]float32, out)
		Scalar().MatVecT(want, w, h)
		for _, bk := range challengers() {
			got := make([]float32, out)
			bk.MatVecT(got, w, h)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("MatVecT %dx%d workers=%d: bit mismatch at %d", in, out, bk.Workers(), i)
			}
		}
	}
}

func TestBackendsBitIdenticalOutputHead(t *testing.T) {
	r := rng.NewString("backend/outputhead")
	for _, lanes := range []int{1, 2, 3, 4, 5, 7} {
		vocab, dim := 301, 33
		emb := NewMatrix(vocab, dim)
		fillSigned(r, emb.Data)
		hs := make([][]float32, lanes)
		want := make([][]float32, lanes)
		got := make([][]float32, lanes)
		for k := range hs {
			hs[k] = make([]float32, dim)
			fillSigned(r, hs[k])
			want[k] = make([]float32, vocab)
			got[k] = make([]float32, vocab)
		}
		Scalar().OutputHead(want, emb, hs)
		for _, bk := range challengers() {
			for k := range got {
				clear(got[k])
			}
			bk.OutputHead(got, emb, hs)
			for k := range want {
				if i, ok := bitsEqual(want[k], got[k]); !ok {
					t.Fatalf("OutputHead lanes=%d workers=%d: lane %d bit mismatch at %d", lanes, bk.Workers(), k, i)
				}
			}
		}
	}
}

// buildAttend builds a deterministic attention block: n query tokens
// over past+n cached rows split into spans, optionally with ALiBi
// slopes, with position gaps so the explicit-position path is exercised.
func buildAttend(r *rng.RNG, n, past, nHeads, group, headDim int, alibi bool) *AttendArgs {
	width := (nHeads / group) * headDim
	rows := past + n
	q := NewMatrix(n, nHeads*headDim)
	out := NewMatrix(n, nHeads*headDim)
	fillSigned(r, q.Data)

	// Split the KV rows into 1–3 spans at arbitrary boundaries.
	bounds := []int{rows}
	if rows > 2 {
		bounds = []int{1 + r.Intn(rows-1), rows}
	}
	var spans []Span
	pos := 0
	row := 0
	for _, b := range bounds {
		cnt := b - row
		if cnt <= 0 {
			continue
		}
		sp := Span{K: make([]float32, cnt*width), V: make([]float32, cnt*width), Pos: make([]int, cnt)}
		fillSigned(r, sp.K)
		fillSigned(r, sp.V)
		for j := range sp.Pos {
			pos += 1 + r.Intn(3) // gaps: positions are explicit, not dense
			sp.Pos[j] = pos
		}
		spans = append(spans, sp)
		row = b
	}
	positions := make([]int, n)
	last := spans[len(spans)-1]
	for i := range positions {
		positions[i] = last.Pos[len(last.Pos)-1] + i // query rows are the tail of the cache
	}
	var slopes []float32
	if alibi {
		slopes = make([]float32, nHeads)
		for i := range slopes {
			slopes[i] = float32(math.Pow(2, -float64(i+1)))
		}
	}
	return &AttendArgs{
		Q: q, Out: out, Spans: spans, Past: past, Positions: positions,
		NHeads: nHeads, Group: group, HeadDim: headDim, Width: width,
		InvSqrt:     float32(1 / math.Sqrt(float64(headDim))),
		AlibiSlopes: slopes, Scores: make([]float32, rows),
	}
}

func TestBackendsBitIdenticalAttend(t *testing.T) {
	r := rng.NewString("backend/attend")
	cases := []struct {
		n, past, nHeads, group, headDim int
		alibi                           bool
	}{
		{1, 0, 1, 1, 4, false},
		{1, 7, 4, 2, 8, false},
		{3, 5, 4, 1, 4, true},
		{16, 33, 4, 2, 16, false},
		{5, 64, 6, 3, 8, true},
	}
	for _, c := range cases {
		a := buildAttend(r, c.n, c.past, c.nHeads, c.group, c.headDim, c.alibi)
		Scalar().AttendRowBlock(a)
		want := append([]float32(nil), a.Out.Data...)
		for _, bk := range challengers() {
			clear(a.Out.Data)
			bk.AttendRowBlock(a)
			if i, ok := bitsEqual(want, a.Out.Data); !ok {
				t.Fatalf("Attend %+v workers=%d: bit mismatch at %d", c, bk.Workers(), i)
			}
		}
	}
}

func TestSelect(t *testing.T) {
	for _, name := range Backends() {
		bk, err := Select(name)
		if err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		if bk.Name() != name {
			t.Fatalf("Select(%q).Name() = %q", name, bk.Name())
		}
	}
	for _, name := range []string{"", "auto"} {
		if _, err := Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
	}
	if _, err := Select("cuda"); err == nil {
		t.Fatal("Select(cuda) should fail")
	}
}

func TestAutoHonorsEnv(t *testing.T) {
	t.Setenv("PC_BACKEND", "scalar")
	if got := Auto().Name(); got != "scalar" {
		t.Fatalf("Auto() under PC_BACKEND=scalar = %q", got)
	}
	t.Setenv("PC_BACKEND", "parallel")
	if got := Auto().Name(); got != "parallel" {
		t.Fatalf("Auto() under PC_BACKEND=parallel = %q", got)
	}
}
