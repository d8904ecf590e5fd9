package tensor

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// Backend is the kernel dispatch surface the transformer engine runs on.
// Every hot loop in internal/model bottoms out in one of these methods,
// so a Backend is the unit of hardware specialization: the scalar
// backend is the single-threaded reference implementation, the parallel
// backend tiles the same arithmetic across goroutines, and a future
// accelerator backend would slot in behind the same interface.
//
// The contract every implementation must honor is bit-identity: for any
// input, every output element must be bit-for-bit equal to what the
// scalar reference produces (compare with math.Float32bits, not a
// tolerance). The only freedom a backend has is scheduling — which
// worker computes which independent output element, and in what order
// whole elements complete. Inside a reduction (a dot product, a softmax
// sum, a norm accumulator) the reference accumulation order is part of
// the contract and must not change, because float addition does not
// commute in rounding. This is what lets golden-logits tests, the fused
// ≡ solo decode guarantee and cross-machine cache reuse hold regardless
// of which backend served a request.
//
// Within one worker a kernel may tile — compute several independent
// outputs in one pass so that about four or more sums are in flight —
// provided the tile spans only independent outputs and each sum keeps
// its reference order and zero-skips (see the package doc's tiling
// rule). Tiling changes speed, never bits.
type Backend interface {
	// Name identifies the backend ("scalar", "parallel").
	Name() string
	// Workers reports the goroutine fan-out the backend may use; 1 means
	// strictly sequential execution on the calling goroutine.
	Workers() int

	// MatMul computes dst = a × b (a: n×k, b: k×m, dst: n×m, no aliasing).
	MatMul(dst, a, b *Matrix)
	// MatVec computes dst = m × v (row-major dot products).
	MatVec(dst []float32, m *Matrix, v []float32)
	// MatVecT computes dst = Wᵀ·h for W stored (in × out):
	// dst[j] = Σ_i W[i][j]·h[i], accumulated over i ascending.
	MatVecT(dst []float32, w *Matrix, h []float32)

	// Dot/Dot2/Dot4 are the row-block reduction kernels (one pass over a,
	// 1/2/4 bit-identical sums). Reductions are never parallelized.
	Dot(a, b []float32) float32
	Dot2(a, b0, b1 []float32) (float32, float32)
	Dot4(a, b0, b1, b2, b3 []float32) (float32, float32, float32, float32)

	// AttendRowBlock computes causal multi-head attention for a block of
	// query rows over segmented KV spans; see AttendArgs.
	AttendRowBlock(a *AttendArgs)
	// OutputHead computes the tied output head for a batch of normed
	// hidden states: dsts[k][t] = emb.Row(t) · hs[k] for every vocab row
	// t and lane k, reading each embedding row once per lane group.
	OutputHead(dsts [][]float32, emb *Matrix, hs [][]float32)

	// Elementwise kernels; identical scalar code in every backend, on the
	// interface so a device backend can keep the whole pass resident.
	Softmax(x []float32)
	RMSNorm(dst, x, weight []float32, eps float32)
	LayerNorm(dst, x, gamma, beta []float32, eps float32)
	SiLU(x []float32)
	GELU(x []float32)
}

// Span is one contiguous run of cached KV rows, mirroring
// kvcache.Segment without importing it (kvcache sits above tensor).
// K and V hold len(Pos) rows of the owning cache's KV width; Pos holds
// the explicit position IDs those rows were recorded at.
type Span struct {
	K, V []float32
	Pos  []int
}

// AttendArgs describes one AttendRowBlock call: causal multi-head
// attention for n = Q.Rows query tokens over the KV rows in Spans.
// Query token i (cache row Past+i, position Positions[i]) attends over
// rows [0, Past+i+1) — the chunk-prefill causal clamp; a single decode
// step is the n=1, Past=rows-1 special case.
//
// Every (token, head) pair is an independent output: backends may
// compute pairs in any order or concurrently, but within a pair the
// score pass, softmax and weighted-V combine follow the reference
// order (spans in order, rows ascending, the w == 0 skip preserved).
type AttendArgs struct {
	Q, Out *Matrix // n × (NHeads·HeadDim); Out rows are overwritten
	Spans  []Span
	// Past counts cache rows preceding this block's first token.
	Past      int
	Positions []int // query position IDs, len n

	NHeads  int
	Group   int // query heads per KV head (GQA); 1 for MHA
	HeadDim int
	Width   int     // KV row width = NKVHeads·HeadDim
	InvSqrt float32 // 1/sqrt(HeadDim), the score scale

	// AlibiSlopes, when non-nil, enables the ALiBi bias
	// -slope[h]·max(0, qPos-p) computed from explicit position IDs.
	AlibiSlopes []float32

	// Scores is caller scratch with len >= Past+Q.Rows, used by
	// sequential execution; parallel workers substitute pooled buffers.
	Scores []float32
}

// attendPairs computes the flattened (token, head) pairs [lo, hi) of an
// attention row block, pair idx = token*NHeads + head. This is the one
// shared reference body: both backends run exactly this code, differing
// only in how pairs are distributed.
func attendPairs(a *AttendArgs, scores []float32, lo, hi int) {
	hd, width := a.HeadDim, a.Width
	for idx := lo; idx < hi; idx++ {
		i, h := idx/a.NHeads, idx%a.NHeads
		rows := a.Past + i + 1
		qPos := a.Positions[i]
		base := (h / a.Group) * hd
		qh := a.Q.Row(i)[h*hd : (h+1)*hd]
		s := scores[:rows]
		off := 0
		for _, sp := range a.Spans {
			if off >= rows {
				break
			}
			lim := len(sp.Pos)
			if off+lim > rows {
				lim = rows - off
			}
			// Score pass, four K rows at a time: Dot4 keeps four
			// independent sums in flight, each accumulating exactly as
			// Dot(qh, k) would, so the tiling is invisible in the bits.
			ks := sp.K
			j := 0
			for ; j+4 <= lim; j += 4 {
				r := j*width + base
				d0, d1, d2, d3 := Dot4(qh,
					ks[r:r+hd], ks[r+width:r+width+hd],
					ks[r+2*width:r+2*width+hd], ks[r+3*width:r+3*width+hd])
				s[off+j] = a.score(d0, h, qPos, sp.Pos[j])
				s[off+j+1] = a.score(d1, h, qPos, sp.Pos[j+1])
				s[off+j+2] = a.score(d2, h, qPos, sp.Pos[j+2])
				s[off+j+3] = a.score(d3, h, qPos, sp.Pos[j+3])
			}
			for ; j < lim; j++ {
				r := j*width + base
				s[off+j] = a.score(Dot(qh, ks[r:r+hd]), h, qPos, sp.Pos[j])
			}
			off += lim
		}
		Softmax(s)
		// Weighted-V combine: every output dimension is its own sum over
		// rows ascending with the w == 0 skip, held in registers eight
		// dimensions at a time across all spans.
		oh := a.Out.Row(i)[h*hd : (h+1)*hd]
		clear(oh)
		off = 0
		for _, sp := range a.Spans {
			if off >= rows {
				break
			}
			lim := len(sp.Pos)
			if off+lim > rows {
				lim = rows - off
			}
			w := s[off : off+lim]
			t := 0
			for ; t+8 <= hd; t += 8 {
				accumCols8((*[8]float32)(oh[t:t+8]), w, sp.V, base+t, width)
			}
			if t < hd {
				accumCols(oh[t:], w, sp.V, base+t, width)
			}
			off += lim
		}
	}
}

// score scales the raw q·k dot product of head h and, under ALiBi,
// applies the bias from explicit position IDs (§4.2): the classic
// -slope·distance, where distance uses the recorded positions, not
// array indices, so module gaps behave like the paper's "white space".
func (a *AttendArgs) score(dot float32, h, qPos, kPos int) float32 {
	sc := dot * a.InvSqrt
	if a.AlibiSlopes != nil {
		dist := qPos - kPos
		if dist < 0 {
			dist = 0
		}
		sc -= a.AlibiSlopes[h] * float32(dist)
	}
	return sc
}

func checkAttendArgs(a *AttendArgs) {
	if a.Q.Rows != a.Out.Rows || len(a.Positions) != a.Q.Rows {
		panic(fmt.Sprintf("tensor: AttendRowBlock q=%d out=%d positions=%d rows",
			a.Q.Rows, a.Out.Rows, len(a.Positions)))
	}
}

// outputHeadRange computes dsts[k][t] for vocab rows t in [lo, hi) and
// every lane k. Each logit is one float32 sum, a serial chain of adds,
// so a lone dot product is latency-bound; the tiles below keep four
// independent sums in flight instead. Lanes go four at a time through
// Dot4 (one embedding row, four lanes); a 2-lane remainder runs 2 vocab
// rows × 2 lanes; a 1-lane remainder runs 4 vocab rows through Dot4
// with the lane as the shared operand. Every sum still accumulates
// row[i]·h[i] over i ascending — exactly Dot(emb.Row(t), h) — so the
// tiling is invisible in the logits.
func outputHeadRange(dsts [][]float32, emb *Matrix, hs [][]float32, lo, hi int) {
	k := 0
	for ; k+4 <= len(hs); k += 4 {
		d0, d1, d2, d3 := dsts[k], dsts[k+1], dsts[k+2], dsts[k+3]
		h0, h1, h2, h3 := hs[k], hs[k+1], hs[k+2], hs[k+3]
		for t := lo; t < hi; t++ {
			row := emb.Row(t)
			d0[t], d1[t], d2[t], d3[t] = Dot4(row, h0, h1, h2, h3)
		}
	}
	if k+2 <= len(hs) {
		d0, d1 := dsts[k], dsts[k+1]
		h0, h1 := hs[k], hs[k+1]
		t := lo
		for ; t+2 <= hi; t += 2 {
			d0[t], d1[t], d0[t+1], d1[t+1] = dot2x2(emb.Row(t), emb.Row(t+1), h0, h1)
		}
		if t < hi {
			d0[t], d1[t] = Dot2(emb.Row(t), h0, h1)
		}
		k += 2
	}
	if k < len(hs) {
		d, h := dsts[k], hs[k]
		t := lo
		for ; t+4 <= hi; t += 4 {
			d[t], d[t+1], d[t+2], d[t+3] = Dot4(h, emb.Row(t), emb.Row(t+1), emb.Row(t+2), emb.Row(t+3))
		}
		for ; t < hi; t++ {
			d[t] = Dot(emb.Row(t), h)
		}
	}
}

// dot2x2 returns a0·b0, a0·b1, a1·b0 and a1·b1 in one pass: four
// independent sums, each accumulating a[i]·b[i] over i ascending
// exactly as Dot(aX, bY) would.
func dot2x2(a0, a1, b0, b1 []float32) (s00, s01, s10, s11 float32) {
	n := len(a0)
	if len(a1) != n || len(b0) != n || len(b1) != n {
		panic(fmt.Sprintf("tensor: dot2x2 length mismatch vs %d", n))
	}
	a1, b0, b1 = a1[:n], b0[:n], b1[:n]
	for i, x0 := range a0 {
		x1 := a1[i]
		s00 += x0 * b0[i]
		s01 += x0 * b1[i]
		s10 += x1 * b0[i]
		s11 += x1 * b1[i]
	}
	return s00, s01, s10, s11
}

func checkOutputHead(dsts [][]float32, emb *Matrix, hs [][]float32) {
	if len(dsts) != len(hs) {
		panic(fmt.Sprintf("tensor: OutputHead %d dsts for %d lanes", len(dsts), len(hs)))
	}
	for k := range hs {
		if len(hs[k]) != emb.Cols || len(dsts[k]) != emb.Rows {
			panic(fmt.Sprintf("tensor: OutputHead lane %d shapes h=%d dst=%d emb=%dx%d",
				k, len(hs[k]), len(dsts[k]), emb.Rows, emb.Cols))
		}
	}
}

// Backends lists the selectable backend names.
func Backends() []string { return []string{"scalar", "parallel"} }

var scalarInstance Backend = &scalarBackend{}

// Scalar returns the single-threaded reference backend. Every kernel
// runs on the calling goroutine in the canonical accumulation order;
// the other backends are verified bit-for-bit against it.
func Scalar() Backend { return scalarInstance }

// NewParallel returns the goroutine-tiled backend with the given worker
// fan-out (non-positive selects GOMAXPROCS). With one worker it degrades
// to the scalar execution schedule while keeping its own name, which is
// what 1-CPU CI runs under when "parallel" is pinned.
func NewParallel(workers int) Backend {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &parallelBackend{workers: workers}
}

// Select maps a backend name to an instance: "scalar", "parallel", or
// ""/"auto" for Auto's choice.
func Select(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return Auto(), nil
	case "scalar":
		return Scalar(), nil
	case "parallel":
		return NewParallel(0), nil
	}
	return nil, fmt.Errorf("tensor: unknown backend %q (have auto, %s)", name, strings.Join(Backends(), ", "))
}

// Auto picks the startup default: the PC_BACKEND environment variable
// when it names a backend, else parallel when more than one CPU is
// available to the process, else scalar. The choice affects scheduling
// only — outputs are bit-identical either way — so Auto never needs to
// be pinned for correctness, only for benchmarking.
func Auto() Backend {
	switch os.Getenv("PC_BACKEND") {
	case "scalar":
		return Scalar()
	case "parallel":
		return NewParallel(0)
	}
	if runtime.GOMAXPROCS(0) > 1 {
		return NewParallel(0)
	}
	return Scalar()
}
