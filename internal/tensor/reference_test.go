package tensor

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// Reference kernels: the plain one-sum-at-a-time loops the tiled
// kernels replaced. Each is the definition of its kernel's bits — every
// output is one float32 sum accumulated in ascending index order with
// the same zero-skips — and both backends must match them exactly.

// refDot is Dot as a single serial chain.
func refDot(a, b []float32) float32 {
	var s float32
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// refMatVecT streams W row-major into dst, skipping h[i] == 0.
func refMatVecT(dst []float32, w *Matrix, h []float32) {
	for j := range dst {
		dst[j] = 0
	}
	for i, hv := range h {
		if hv == 0 {
			continue
		}
		for j, wv := range w.Row(i) {
			dst[j] += hv * wv
		}
	}
}

// refOutputHead computes every logit as its own dot product.
func refOutputHead(dsts [][]float32, emb *Matrix, hs [][]float32) {
	for k, h := range hs {
		for t := 0; t < emb.Rows; t++ {
			dsts[k][t] = refDot(emb.Row(t), h)
		}
	}
}

// refAttend computes every (token, head) pair with one dot product per
// score: scale, ALiBi bias from explicit positions, softmax, then the
// weighted-V combine with the w == 0 skip.
func refAttend(a *AttendArgs) {
	hd, width := a.HeadDim, a.Width
	for i := 0; i < a.Q.Rows; i++ {
		rows := a.Past + i + 1
		for h := 0; h < a.NHeads; h++ {
			base := (h / a.Group) * hd
			qh := a.Q.Row(i)[h*hd : (h+1)*hd]
			s := make([]float32, 0, rows)
			var vs [][]float32
			for _, sp := range a.Spans {
				for j := range sp.Pos {
					if len(s) == rows {
						break
					}
					row := j * width
					sc := refDot(qh, sp.K[row+base:row+base+hd]) * a.InvSqrt
					if a.AlibiSlopes != nil {
						dist := a.Positions[i] - sp.Pos[j]
						if dist < 0 {
							dist = 0
						}
						sc -= a.AlibiSlopes[h] * float32(dist)
					}
					s = append(s, sc)
					vs = append(vs, sp.V[row+base:row+base+hd])
				}
			}
			Softmax(s)
			oh := a.Out.Row(i)[h*hd : (h+1)*hd]
			for t := range oh {
				oh[t] = 0
			}
			for j, w := range s {
				if w == 0 {
					continue
				}
				for t := range oh {
					oh[t] += w * vs[j][t]
				}
			}
		}
	}
}

// allBackends is the scalar reference backend plus the challengers: the
// tiled kernel bodies are shared, so both must match the plain loops.
func allBackends() []Backend {
	return append([]Backend{Scalar()}, challengers()...)
}

// fillZeroHeavy is fillSigned with a much higher share of exact zeros,
// so whole tiles hit the zero-skips together as well as singly.
func fillZeroHeavy(r *rng.RNG, data []float32) {
	fillSigned(r, data)
	for i := range data {
		if r.Intn(3) == 0 {
			data[i] = 0
		}
	}
}

func checkMatVecTRef(t testing.TB, bk Backend, w *Matrix, h []float32) {
	t.Helper()
	want := make([]float32, w.Cols)
	refMatVecT(want, w, h)
	got := make([]float32, w.Cols)
	bk.MatVecT(got, w, h)
	if i, ok := bitsEqual(want, got); !ok {
		t.Fatalf("MatVecT %dx%d %s/%d: bit mismatch with reference at %d",
			w.Rows, w.Cols, bk.Name(), bk.Workers(), i)
	}
}

func checkOutputHeadRef(t testing.TB, bk Backend, emb *Matrix, hs [][]float32) {
	t.Helper()
	want := make([][]float32, len(hs))
	got := make([][]float32, len(hs))
	for k := range hs {
		want[k] = make([]float32, emb.Rows)
		got[k] = make([]float32, emb.Rows)
	}
	refOutputHead(want, emb, hs)
	bk.OutputHead(got, emb, hs)
	for k := range want {
		if i, ok := bitsEqual(want[k], got[k]); !ok {
			t.Fatalf("OutputHead vocab=%d dim=%d lanes=%d %s/%d: lane %d bit mismatch with reference at %d",
				emb.Rows, emb.Cols, len(hs), bk.Name(), bk.Workers(), k, i)
		}
	}
}

func checkAttendRef(t testing.TB, bk Backend, a *AttendArgs) {
	t.Helper()
	refAttend(a)
	want := append([]float32(nil), a.Out.Data...)
	clear(a.Out.Data)
	bk.AttendRowBlock(a)
	if i, ok := bitsEqual(want, a.Out.Data); !ok {
		t.Fatalf("Attend n=%d past=%d heads=%d group=%d hd=%d alibi=%v %s/%d: bit mismatch with reference at %d",
			a.Q.Rows, a.Past, a.NHeads, a.Group, a.HeadDim, a.AlibiSlopes != nil, bk.Name(), bk.Workers(), i)
	}
}

// TestMatVecTMatchesReference covers every column remainder of the
// 8-wide tile (column counts 1–41), and matrices past the parallel
// threshold so column shards start mid-tile.
func TestMatVecTMatchesReference(t *testing.T) {
	r := rng.NewString("reference/matvect")
	shapes := [][2]int{{1, 1}, {64, 64}, {64, 176}, {176, 64}, {257, 131}, {300, 213}}
	for c := 1; c <= 41; c++ {
		shapes = append(shapes, [2]int{1 + r.Intn(40), c})
	}
	for _, sh := range shapes {
		w := NewMatrix(sh[0], sh[1])
		h := make([]float32, sh[0])
		for _, fill := range []func(*rng.RNG, []float32){fillSigned, fillZeroHeavy} {
			fill(r, w.Data)
			fill(r, h)
			for _, bk := range allBackends() {
				checkMatVecTRef(t, bk, w, h)
			}
		}
	}
}

// TestOutputHeadMatchesReference covers lanes 1–9 (every mix of the
// 4-lane, 2×2 and 4-row tiles) over vocab sizes that leave every row
// remainder, plus a vocab large enough to shard.
func TestOutputHeadMatchesReference(t *testing.T) {
	r := rng.NewString("reference/outputhead")
	for lanes := 1; lanes <= 9; lanes++ {
		for _, sh := range [][2]int{{1, 1}, {2, 3}, {3, 8}, {5, 17}, {7, 33}, {64 + lanes, 64}, {1030, 37}} {
			emb := NewMatrix(sh[0], sh[1])
			fillSigned(r, emb.Data)
			hs := make([][]float32, lanes)
			for k := range hs {
				hs[k] = make([]float32, sh[1])
				fillZeroHeavy(r, hs[k])
			}
			for _, bk := range allBackends() {
				checkOutputHeadRef(t, bk, emb, hs)
			}
		}
	}
}

// buildSpanAttend builds an attention block whose KV rows come in spans
// of the given lengths (1–7 each, so the 4-row score tile meets every
// remainder and spans shorter than a tile).
func buildSpanAttend(r *rng.RNG, spanLens []int, n, nHeads, group, headDim int, alibi bool) *AttendArgs {
	width := (nHeads / group) * headDim
	rows := 0
	var spans []Span
	pos := 0
	for _, cnt := range spanLens {
		sp := Span{K: make([]float32, cnt*width), V: make([]float32, cnt*width), Pos: make([]int, cnt)}
		fillZeroHeavy(r, sp.K)
		fillSigned(r, sp.V)
		for j := range sp.Pos {
			pos += 1 + r.Intn(3)
			sp.Pos[j] = pos
		}
		spans = append(spans, sp)
		rows += cnt
	}
	if n > rows {
		n = rows
	}
	q := NewMatrix(n, nHeads*headDim)
	fillZeroHeavy(r, q.Data)
	positions := make([]int, n)
	for i := range positions {
		positions[i] = pos - (n - 1) + i // the block is the tail of the cache
	}
	var slopes []float32
	if alibi {
		slopes = make([]float32, nHeads)
		for i := range slopes {
			slopes[i] = 1 / float32(int(1)<<(i+1))
		}
	}
	return &AttendArgs{
		Q: q, Out: NewMatrix(n, nHeads*headDim), Spans: spans, Past: rows - n, Positions: positions,
		NHeads: nHeads, Group: group, HeadDim: headDim, Width: width,
		InvSqrt: 0.25, AlibiSlopes: slopes, Scores: make([]float32, rows),
	}
}

// TestAttendMatchesReference covers span lengths 1–7, 1–3 query rows,
// ALiBi on and off and GQA groups 1, 2 and 4, plus long blocks that
// cross the parallel threshold.
func TestAttendMatchesReference(t *testing.T) {
	r := rng.NewString("reference/attend")
	for _, group := range []int{1, 2, 4} {
		for _, alibi := range []bool{false, true} {
			for trial := 0; trial < 12; trial++ {
				lens := make([]int, 1+r.Intn(4))
				for i := range lens {
					lens[i] = 1 + r.Intn(7)
				}
				a := buildSpanAttend(r, lens, 1+r.Intn(3), 4, group, 4+4*r.Intn(3), alibi)
				for _, bk := range allBackends() {
					checkAttendRef(t, bk, a)
				}
			}
			a := buildSpanAttend(r, []int{300, 7, 29}, 5, 8, group, 16, alibi)
			for _, bk := range allBackends() {
				checkAttendRef(t, bk, a)
			}
		}
	}
}

// FuzzBackendKernels drives MatVecT, OutputHead and AttendRowBlock
// across fuzzer-chosen shapes and worker counts, asserting bit-identity
// of both backends against the reference loops. The corpus seeds cover
// the tile remainders and shard-boundary hazards (odd sizes, more
// workers than elements).
func FuzzBackendKernels(f *testing.F) {
	f.Add(uint64(1), 7, 3, 2, 4)
	f.Add(uint64(2), 1, 1, 1, 1)
	f.Add(uint64(3), 65, 129, 3, 8)
	f.Add(uint64(4), 16, 512, 2, 3)
	f.Add(uint64(5), 9, 13, 7, 2)
	f.Fuzz(func(t *testing.T, seed uint64, in, out, lanes, workers int) {
		if in < 1 || in > 512 || out < 1 || out > 512 || lanes < 1 || lanes > 9 || workers < 1 || workers > 16 {
			t.Skip()
		}
		r := rng.NewString(fmt.Sprintf("fuzz/%d/%d/%d/%d/%d", seed, in, out, lanes, workers))
		bks := []Backend{Scalar(), NewParallel(workers)}

		w := NewMatrix(in, out)
		h := make([]float32, in)
		fillSigned(r, w.Data)
		fillZeroHeavy(r, h)
		for _, bk := range bks {
			checkMatVecTRef(t, bk, w, h)
		}

		emb := NewMatrix(out, in) // vocab=out, dim=in
		fillSigned(r, emb.Data)
		hs := make([][]float32, lanes)
		for k := range hs {
			hs[k] = make([]float32, in)
			fillSigned(r, hs[k])
		}
		for _, bk := range bks {
			checkOutputHeadRef(t, bk, emb, hs)
		}

		// Attention: spans of 1–7 rows, head dim and GQA group from the
		// fuzzed sizes, ALiBi on odd seeds.
		lens := make([]int, 1+out%4)
		for i := range lens {
			lens[i] = 1 + r.Intn(7)
		}
		group := []int{1, 2, 4}[in%3]
		a := buildSpanAttend(r, lens, lanes%4+1, 4, group, 1+in%24, seed%2 == 1)
		for _, bk := range bks {
			checkAttendRef(t, bk, a)
		}
	})
}
