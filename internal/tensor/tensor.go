// Package tensor implements the minimal dense float32 linear algebra the
// transformer engine needs: row-major matrices, matrix multiplication,
// softmax, normalization layers and activations.
//
// The package is deliberately small and allocation-conscious rather than
// general: every routine used on the inference hot path has an in-place or
// destination-buffer form, because Prompt Cache's performance story is
// partly about avoiding avoidable copies (§4.2 of the paper overrides
// PyTorch's concatenation for the same reason).
//
// # Backends
//
// The hot-path kernels are additionally exposed through the Backend
// interface, the unit of hardware specialization: "scalar" is the
// single-threaded reference, "parallel" tiles the same arithmetic across
// goroutines (matrix rows, output-head vocab ranges, attention
// (token, head) pairs, MatVecT output columns). Backends are
// bit-identical by contract — parallelism only ever crosses independent
// output elements, never a reduction — so golden-logits tests and
// cross-machine cache reuse hold under any backend. Select maps names to
// instances; Auto picks per the host (and the PC_BACKEND environment
// variable).
//
// # Tiling rule
//
// Go compiles each float32 sum as one serial chain of adds, so a kernel
// that finishes one dot product before starting the next runs at the
// add latency, not the machine's throughput — decode's small shapes
// (one to three lanes, 16-wide heads, 64-wide hidden states) are bound
// by exactly that. The decode-hot kernel bodies, shared by both
// backends, therefore tile: MatVecT holds 8 output columns in registers
// (accumCols8), attention scores 4 K rows per pass and combines 8 head
// dimensions per pass, and the output head runs 4 lanes per embedding
// row, 2 rows × 2 lanes, or 4 rows of one lane. A tile may only span
// independent outputs; each sum keeps its accumulation order and its
// zero-skips, so a tiled kernel is bit-identical to the plain loop; and
// a tile should keep about four or more sums in flight. The plain
// loops live on in reference_test.go as the definition of the bits.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float32 matrix with Rows x Cols elements.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows x Cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set sets element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SliceRows returns a view of rows [lo, hi).
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows[%d:%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// matmulParallelThreshold is the output-element count above which MatMul
// fans work out across GOMAXPROCS goroutines.
const matmulParallelThreshold = 64 * 64

// MatMul computes dst = a × b where a is (n×k) and b is (k×m).
// dst must be (n×m) and must not alias a or b.
func MatMul(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	if a.Rows*b.Cols >= matmulParallelThreshold {
		matMulParallel(dst, a, b)
		return
	}
	matMulRange(dst, a, b, 0, a.Rows)
}

func checkMatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// matMulRange computes rows [lo, hi) of dst = a×b with a k-blocked inner
// loop (i-k-j order) that keeps b's rows streaming through cache.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	n, k, m := a.Rows, a.Cols, b.Cols
	_ = n
	for i := lo; i < hi; i++ {
		out := dst.Data[i*m : (i+1)*m]
		for j := range out {
			out[j] = 0
		}
		arow := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*m : (p+1)*m]
			for j, bv := range brow {
				out[j] += av * bv
			}
		}
	}
}

func matMulParallel(dst, a, b *Matrix) {
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers <= 1 {
		matMulRange(dst, a, b, 0, a.Rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatVec computes dst = m × v for a (rows×cols) matrix and len-cols vector.
func MatVec(dst []float32, m *Matrix, v []float32) {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shapes m=%dx%d v=%d dst=%d", m.Rows, m.Cols, len(v), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), v)
	}
}

// MatVecT computes dst = Wᵀ·h for W stored as (in × out):
// dst[j] = Σ_i W[i][j] · h[i]. Walking W row-major keeps the weight
// matrix streaming through cache while h stays resident.
func MatVecT(dst []float32, w *Matrix, h []float32) {
	checkMatVecT(dst, w, h)
	matVecTRange(dst, w, h, 0, w.Cols)
}

func checkMatVecT(dst []float32, w *Matrix, h []float32) {
	if len(h) != w.Rows || len(dst) != w.Cols {
		panic(fmt.Sprintf("tensor: MatVecT shapes W=%dx%d h=%d dst=%d", w.Rows, w.Cols, len(h), len(dst)))
	}
}

// matVecTRowBlock bounds the rows of W that matVecTRange walks per
// column tile. A tile reads W down a column, one cache line per row;
// blocking keeps the rows every tile of a block reads (128 KB at 512
// columns) in L2, and one tile's 64 lines in L1 for the neighbouring
// tile that shares them.
const matVecTRowBlock = 64

// matVecTRange computes dst[j] = Σ_i W[i][j]·h[i] for columns
// j in [lo, hi). Each column accumulates over i ascending with the
// h[i] == 0 skip, so any column partition yields identical bits.
// Columns go eight at a time through accumCols8, which keeps their sums
// in registers; rows go in blocks of matVecTRowBlock, each block
// continuing the sums the previous one left in dst.
func matVecTRange(dst []float32, w *Matrix, h []float32, lo, hi int) {
	out := dst[lo:hi]
	clear(out)
	for r0 := 0; r0 < len(h); r0 += matVecTRowBlock {
		hb := h[r0:min(r0+matVecTRowBlock, len(h))]
		off := r0*w.Cols + lo
		j := 0
		for ; j+8 <= len(out); j += 8 {
			accumCols8((*[8]float32)(out[j:j+8]), hb, w.Data, off+j, w.Cols)
		}
		if j < len(out) {
			accumCols(out[j:], hb, w.Data, off+j, w.Cols)
		}
	}
}

// accumCols8 adds Σ_i coef[i]·data[off+i·stride+c] into d[c] for each
// of d's eight columns c: rows i ascending, coef[i] == 0 skipped. That
// is exactly the accumulation of a row-streaming d[c] += coef[i]·row[c]
// loop, but a float32 sum is a serial chain of adds, so that loop waits
// on each add through memory; here the eight sums stay in registers
// and eight chains are in flight at once.
func accumCols8(d *[8]float32, coef, data []float32, off, stride int) {
	s0, s1, s2, s3, s4, s5, s6, s7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
	for _, c := range coef {
		if c != 0 {
			r := data[off : off+8 : off+8]
			s0 += c * r[0]
			s1 += c * r[1]
			s2 += c * r[2]
			s3 += c * r[3]
			s4 += c * r[4]
			s5 += c * r[5]
			s6 += c * r[6]
			s7 += c * r[7]
		}
		off += stride
	}
	d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// accumCols is accumCols8 for any column count: the plain
// row-streaming loop, used for the columns left over after the
// eight-wide tiles.
func accumCols(d, coef, data []float32, off, stride int) {
	for _, c := range coef {
		if c != 0 {
			r := data[off : off+len(d)]
			for k, v := range r {
				d[k] += c * v
			}
		}
		off += stride
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Dot2 computes a·b0 and a·b1 in a single pass over a. Each sum
// accumulates in exactly the order Dot(a, bK) would, so the results are
// bit-identical to two solo calls; sharing the walk loads each element
// of a once for both sums — the inner kernel of the batched-decode
// output head.
func Dot2(a, b0, b1 []float32) (float32, float32) {
	if len(b0) != len(a) || len(b1) != len(a) {
		panic(fmt.Sprintf("tensor: Dot2 length mismatch %d/%d vs %d", len(b0), len(b1), len(a)))
	}
	b0, b1 = b0[:len(a)], b1[:len(a)]
	var s0, s1 float32
	for i, av := range a {
		s0 += av * b0[i]
		s1 += av * b1[i]
	}
	return s0, s1
}

// Dot4 is Dot2 over four right-hand sides: one pass over a, four
// bit-identical sums.
func Dot4(a, b0, b1, b2, b3 []float32) (float32, float32, float32, float32) {
	if len(b0) != len(a) || len(b1) != len(a) || len(b2) != len(a) || len(b3) != len(a) {
		panic(fmt.Sprintf("tensor: Dot4 length mismatch vs %d", len(a)))
	}
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	var s0, s1, s2, s3 float32
	for i, av := range a {
		s0 += av * b0[i]
		s1 += av * b1[i]
		s2 += av * b2[i]
		s3 += av * b3[i]
	}
	return s0, s1, s2, s3
}

// Add computes dst[i] += src[i].
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Add length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Mul computes dst[i] *= src[i].
func Mul(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Mul length mismatch")
	}
	for i, v := range src {
		dst[i] *= v
	}
}

// Scale multiplies every element of dst by s.
func Scale(dst []float32, s float32) {
	for i := range dst {
		dst[i] *= s
	}
}

// Softmax normalizes x in place into a probability distribution,
// subtracting the max first for numerical stability.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range x {
		e := float32(math.Exp(float64(v - maxv)))
		x[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range x {
		x[i] *= inv
	}
}

// RMSNorm writes RMS-normalized x scaled by weight into dst
// (dst = x / rms(x) * w), the normalization used by Llama-family models.
func RMSNorm(dst, x, weight []float32, eps float32) {
	if len(dst) != len(x) || len(x) != len(weight) {
		panic("tensor: RMSNorm length mismatch")
	}
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1 / math.Sqrt(ss/float64(len(x))+float64(eps)))
	for i, v := range x {
		dst[i] = v * inv * weight[i]
	}
}

// LayerNorm writes layer-normalized x scaled by gamma and shifted by beta
// into dst, the normalization used by MPT/GPT-family models.
func LayerNorm(dst, x, gamma, beta []float32, eps float32) {
	if len(dst) != len(x) || len(x) != len(gamma) || len(x) != len(beta) {
		panic("tensor: LayerNorm length mismatch")
	}
	var mean float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(len(x))
	var variance float64
	for _, v := range x {
		d := float64(v) - mean
		variance += d * d
	}
	variance /= float64(len(x))
	inv := float32(1 / math.Sqrt(variance+float64(eps)))
	for i, v := range x {
		dst[i] = (v-float32(mean))*inv*gamma[i] + beta[i]
	}
}

// SiLU applies x*sigmoid(x) elementwise in place (Llama FFN activation).
func SiLU(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// GELU applies the tanh-approximated Gaussian error linear unit in place
// (GPT/MPT FFN activation).
func GELU(x []float32) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		v64 := float64(v)
		x[i] = float32(0.5 * v64 * (1 + math.Tanh(c*(v64+0.044715*v64*v64*v64))))
	}
}

// ArgMax returns the index of the largest element, breaking ties toward
// the lower index. It panics on an empty slice.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// MaxAbsDiff returns max_i |a[i]-b[i]|; a convenience for numerical
// equivalence assertions in tests and benchmarks.
func MaxAbsDiff(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: MaxAbsDiff length mismatch")
	}
	var m float32
	for i, av := range a {
		d := av - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0
// if either has zero norm.
func CosineSimilarity(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: CosineSimilarity length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
