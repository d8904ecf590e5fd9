package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Kernel groups the timing backend reports, in report order.
const (
	kMatMul = iota
	kMatVec
	kMatVecT
	kDot
	kAttend
	kOutputHead
	kNorm
	kSoftmax
	kAct
	numKernels
)

var kernelNames = [numKernels]string{"matmul", "matvec", "matvect", "dot", "attend", "output_head", "norm", "softmax", "act"}

// kernelStat accumulates one kernel group. FLOPs and bytes are computed
// from the call's shapes, not measured: bytes count each operand and
// result element once, at 4 bytes per float32.
type kernelStat struct {
	calls, ns, flops, bytes atomic.Int64
}

// timedBackend decorates a tensor.Backend with per-kernel call counts,
// time, and shape-derived FLOPs and bytes. It forwards Workers and Name,
// so the model schedules exactly as it would on the inner backend, and
// it computes nothing itself, so outputs are bit-identical.
//
// busy is kernel wall time: the union of intervals in which at least one
// kernel call is running. Decode fans lanes across goroutines, so summed
// per-call time can exceed wall time; self time subtracts busy instead.
type timedBackend struct {
	inner tensor.Backend
	k     [numKernels]kernelStat

	// posOutputHead counts hidden states through the output head: one
	// per prefill and one per decoded or verified position.
	posOutputHead atomic.Int64

	mu       sync.Mutex
	inflight int
	since    time.Time
	busy     time.Duration
}

func newTimedBackend(inner tensor.Backend) *timedBackend { return &timedBackend{inner: inner} }

func (b *timedBackend) enter() time.Time {
	now := time.Now()
	b.mu.Lock()
	if b.inflight == 0 {
		b.since = now
	}
	b.inflight++
	b.mu.Unlock()
	return now
}

func (b *timedBackend) exit(k int, t0 time.Time, flops, bytes int64) {
	now := time.Now()
	b.mu.Lock()
	b.inflight--
	if b.inflight == 0 {
		b.busy += now.Sub(b.since)
	}
	b.mu.Unlock()
	s := &b.k[k]
	s.calls.Add(1)
	s.ns.Add(int64(now.Sub(t0)))
	s.flops.Add(flops)
	s.bytes.Add(bytes)
}

// reset zeroes the per-kernel totals; call it only between calls.
func (b *timedBackend) reset() {
	for i := range b.k {
		s := &b.k[i]
		s.calls.Store(0)
		s.ns.Store(0)
		s.flops.Store(0)
		s.bytes.Store(0)
	}
	b.posOutputHead.Store(0)
}

// busyTime returns the kernel wall time accumulated so far. Read it
// only between calls: the traced pass is sequential.
func (b *timedBackend) busyTime() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.busy
}

// Shape-derived FLOP and byte counts, one per kernel signature.

func matMulCost(n, k, m int) (int64, int64) {
	return 2 * int64(n) * int64(k) * int64(m), 4 * (int64(n)*int64(k) + int64(k)*int64(m) + int64(n)*int64(m))
}

func matVecCost(rows, cols int) (int64, int64) {
	return 2 * int64(rows) * int64(cols), 4 * (int64(rows)*int64(cols) + int64(rows) + int64(cols))
}

// dotCost is for one pass over a against r rows of the same length.
func dotCost(n, r int) (int64, int64) {
	return 2 * int64(n) * int64(r), 4 * int64(n) * int64(r+1)
}

// attendCost counts the score pass and the weighted sum over V, 2·HeadDim
// FLOPs each per (query, head, visible row); bytes are Q and Out plus the
// K and V rows visible to the block.
func attendCost(a *tensor.AttendArgs) (int64, int64) {
	var visible int64
	for i := 0; i < a.Q.Rows; i++ {
		visible += int64(a.Past + i + 1)
	}
	flops := 4 * int64(a.HeadDim) * int64(a.NHeads) * visible
	rows := int64(a.Past + a.Q.Rows)
	bytes := 4 * (2*int64(a.Q.Rows)*int64(a.NHeads*a.HeadDim) + 2*rows*int64(a.Width))
	return flops, bytes
}

// outputHeadCost is lanes dot products against every embedding row.
func outputHeadCost(vocab, dim, lanes int) (int64, int64) {
	return 2 * int64(vocab) * int64(dim) * int64(lanes),
		4 * (int64(vocab)*int64(dim) + int64(lanes)*int64(dim) + int64(lanes)*int64(vocab))
}

// elementwiseCost is perElem FLOPs per element, reading `reads` vectors
// of n and writing one.
func elementwiseCost(n, perElem, reads int) (int64, int64) {
	return int64(perElem) * int64(n), 4 * int64(n) * int64(reads+1)
}

func (b *timedBackend) Name() string { return b.inner.Name() }
func (b *timedBackend) Workers() int { return b.inner.Workers() }

func (b *timedBackend) MatMul(dst, a, m *tensor.Matrix) {
	t := b.enter()
	b.inner.MatMul(dst, a, m)
	f, by := matMulCost(a.Rows, a.Cols, m.Cols)
	b.exit(kMatMul, t, f, by)
}

func (b *timedBackend) MatVec(dst []float32, m *tensor.Matrix, v []float32) {
	t := b.enter()
	b.inner.MatVec(dst, m, v)
	f, by := matVecCost(m.Rows, m.Cols)
	b.exit(kMatVec, t, f, by)
}

func (b *timedBackend) MatVecT(dst []float32, w *tensor.Matrix, h []float32) {
	t := b.enter()
	b.inner.MatVecT(dst, w, h)
	f, by := matVecCost(w.Rows, w.Cols)
	b.exit(kMatVecT, t, f, by)
}

func (b *timedBackend) Dot(x, y []float32) float32 {
	t := b.enter()
	r := b.inner.Dot(x, y)
	f, by := dotCost(len(x), 1)
	b.exit(kDot, t, f, by)
	return r
}

func (b *timedBackend) Dot2(x, y0, y1 []float32) (float32, float32) {
	t := b.enter()
	r0, r1 := b.inner.Dot2(x, y0, y1)
	f, by := dotCost(len(x), 2)
	b.exit(kDot, t, f, by)
	return r0, r1
}

func (b *timedBackend) Dot4(x, y0, y1, y2, y3 []float32) (float32, float32, float32, float32) {
	t := b.enter()
	r0, r1, r2, r3 := b.inner.Dot4(x, y0, y1, y2, y3)
	f, by := dotCost(len(x), 4)
	b.exit(kDot, t, f, by)
	return r0, r1, r2, r3
}

func (b *timedBackend) AttendRowBlock(a *tensor.AttendArgs) {
	t := b.enter()
	b.inner.AttendRowBlock(a)
	f, by := attendCost(a)
	b.exit(kAttend, t, f, by)
}

func (b *timedBackend) OutputHead(dsts [][]float32, emb *tensor.Matrix, hs [][]float32) {
	t := b.enter()
	b.inner.OutputHead(dsts, emb, hs)
	f, by := outputHeadCost(emb.Rows, emb.Cols, len(hs))
	b.exit(kOutputHead, t, f, by)
	b.posOutputHead.Add(int64(len(hs)))
}

func (b *timedBackend) Softmax(x []float32) {
	t := b.enter()
	b.inner.Softmax(x)
	f, by := elementwiseCost(len(x), 4, 1)
	b.exit(kSoftmax, t, f, by)
}

func (b *timedBackend) RMSNorm(dst, x, weight []float32, eps float32) {
	t := b.enter()
	b.inner.RMSNorm(dst, x, weight, eps)
	f, by := elementwiseCost(len(x), 4, 2)
	b.exit(kNorm, t, f, by)
}

func (b *timedBackend) LayerNorm(dst, x, gamma, beta []float32, eps float32) {
	t := b.enter()
	b.inner.LayerNorm(dst, x, gamma, beta, eps)
	f, by := elementwiseCost(len(x), 7, 3)
	b.exit(kNorm, t, f, by)
}

func (b *timedBackend) SiLU(x []float32) {
	t := b.enter()
	b.inner.SiLU(x)
	f, by := elementwiseCost(len(x), 4, 1)
	b.exit(kAct, t, f, by)
}

func (b *timedBackend) GELU(x []float32) {
	t := b.enter()
	b.inner.GELU(x)
	f, by := elementwiseCost(len(x), 8, 1)
	b.exit(kAct, t, f, by)
}
