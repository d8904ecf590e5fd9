package model

import (
	"context"
	"fmt"
	"math"

	"repro/internal/kvcache"
	"repro/internal/tensor"
)

func cos(x float64) float64    { return math.Cos(x) }
func sin(x float64) float64    { return math.Sin(x) }
func pow(b, e float64) float64 { return math.Pow(b, e) }

// NewCache returns an empty KV cache shaped for this model, reserving
// capacity for capTokens tokens.
func (m *Model) NewCache(capTokens int) *kvcache.Cache {
	return kvcache.New(m.Cfg.NLayers, m.Cfg.KVDim(), capTokens)
}

// NewSeq returns an empty segmented KV view shaped for this model,
// reserving tail capacity for tailCap tokens.
func (m *Model) NewSeq(tailCap int) *kvcache.Seq {
	return kvcache.NewSeq(m.Cfg.NLayers, m.Cfg.KVDim(), tailCap)
}

// scratch holds per-forward-pass temporaries so the token loop does not
// allocate. One scratch per goroutine; Model itself stays read-only.
type scratch struct {
	x, h, attnOut, proj []float32
	q, k, v             []float32
	ffn1, ffn3          []float32
	scores              []float32
	segs                []kvcache.Segment
	spans               []tensor.Span
	// qMat/outMat are reusable 1-row matrix headers over q and attnOut,
	// and att the reusable argument block, so the per-token attention
	// dispatch through the backend interface allocates nothing.
	qMat, outMat tensor.Matrix
	qPos         [1]int
	att          tensor.AttendArgs
	// lgH/lgOut back logitsInto during decode loops, so repeated decode
	// steps reuse one vocab-wide buffer instead of allocating per token.
	// Lazily sized: prefills compute logits once and never need them.
	lgH, lgOut []float32
}

func (m *Model) newScratch() *scratch {
	d := m.Cfg.Dim
	sc := &scratch{
		x: make([]float32, d), h: make([]float32, d),
		attnOut: make([]float32, d), proj: make([]float32, d),
		q: make([]float32, d), k: make([]float32, m.Cfg.KVDim()), v: make([]float32, m.Cfg.KVDim()),
		ffn1: make([]float32, m.Cfg.FFNDim), ffn3: make([]float32, m.Cfg.FFNDim),
	}
	sc.qMat = tensor.Matrix{Rows: 1, Cols: d, Data: sc.q}
	sc.outMat = tensor.Matrix{Rows: 1, Cols: d, Data: sc.attnOut}
	return sc
}

// getScratch takes a scratch from the model's pool (grown buffers —
// scores, segment lists, logits — carry over), falling back to a fresh
// one. Steady-state serving allocates no per-request scratch at all.
func (m *Model) getScratch() *scratch {
	if v := m.scratchPool.Get(); v != nil {
		return v.(*scratch)
	}
	return m.newScratch()
}

func (m *Model) putScratch(sc *scratch) {
	// Segments (and the spans mirroring them) alias module K/V buffers;
	// a pooled stale reference would keep an evicted module's multi-MB
	// backing arrays reachable. Clear the full capacity —
	// AppendSegments reuses slots without zeroing.
	clear(sc.segs[:cap(sc.segs)])
	sc.segs = sc.segs[:0]
	clear(sc.spans[:cap(sc.spans)])
	sc.spans = sc.spans[:0]
	sc.att = tensor.AttendArgs{}
	m.scratchPool.Put(sc)
}

// Prefill runs the forward pass over tokens with the given explicit
// position IDs, appending each token's key/value states to kv and
// returning the logits of the final token. Attention for token i spans
// everything already in kv plus tokens 0..i of this call — exactly the
// KV-cache contract (§2.2), generalized to arbitrary position IDs (§3.3).
//
// Encoding a prompt module is Prefill into an empty cache (confining
// attention to the module span); serving a prompt is Prefill of the
// uncached suffix into a segmented view over the cached module states
// (§3.4), which never copies the cached rows.
func (m *Model) Prefill(tokens, positions []int, kv kvcache.KV) ([]float32, error) {
	return m.PrefillCtx(context.Background(), tokens, positions, kv)
}

// PrefillCtx is Prefill with cancellation: ctx is checked between tokens
// on the sequential path and between layers on the chunked path, so a
// long prefill aborts mid-flight instead of running to completion. On
// cancellation the cache may hold a partial prefix; callers either
// discard it or Truncate back to the pre-call length.
func (m *Model) PrefillCtx(ctx context.Context, tokens, positions []int, kv kvcache.KV) ([]float32, error) {
	if len(tokens) != len(positions) {
		return nil, fmt.Errorf("model: %d tokens but %d positions", len(tokens), len(positions))
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("model: empty prefill")
	}
	if m.PrefillProbe != nil {
		m.PrefillProbe(+1)
		defer m.PrefillProbe(-1)
	}
	if len(tokens) >= chunkThreshold {
		return m.prefillChunk(ctx, tokens, positions, kv)
	}
	return m.prefillSequential(ctx, tokens, positions, kv)
}

// prefillSequential is the reference per-token path; prefillChunk must
// agree with it bit for bit (tested exactly).
func (m *Model) prefillSequential(ctx context.Context, tokens, positions []int, kv kvcache.KV) ([]float32, error) {
	sc := m.getScratch()
	defer m.putScratch(sc)
	var logits []float32
	for i, tok := range tokens {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := m.step(tok, positions[i], kv, sc); err != nil {
			return nil, err
		}
		if i == len(tokens)-1 {
			logits = m.logits(sc.x)
		}
	}
	return logits, nil
}

// Decode runs one autoregressive step: it appends token at position pos to
// kv and returns the next-token logits. The returned slice is freshly
// allocated; decode loops that can reuse buffers go through a DecodeLane
// and DecodeStepBatchMulti.
func (m *Model) Decode(token, pos int, kv kvcache.KV) ([]float32, error) {
	sc := m.getScratch()
	defer m.putScratch(sc)
	if err := m.step(token, pos, kv, sc); err != nil {
		return nil, err
	}
	return m.logits(sc.x), nil
}

// step processes a single token through every layer, appending its KV
// states to kv. After step returns, sc.x holds the final hidden state
// (pre final-norm; logits() applies it).
func (m *Model) step(token, pos int, kv kvcache.KV, sc *scratch) error {
	cfg := &m.Cfg
	if token < 0 || token >= cfg.VocabSize {
		return fmt.Errorf("model: token %d out of vocab %d", token, cfg.VocabSize)
	}
	if pos < 0 || pos >= cfg.MaxSeq {
		return fmt.Errorf("model: position %d out of range [0,%d)", pos, cfg.MaxSeq)
	}
	copy(sc.x, m.embedding.Row(token))
	if cfg.PosEnc == Learned {
		tensor.Add(sc.x, m.posTable.Row(pos))
	}

	// The token's position is recorded before the layer loop; each layer
	// appends its K/V rows, so after layer l the cache's layer-l buffers
	// have exactly len(Pos) rows.
	kv.AppendPos(pos)
	n := kv.Len() // rows to attend over at each layer, including self

	for l := range m.layers {
		ly := &m.layers[l]
		m.norm(sc.h, sc.x, ly.attnNormW, ly.attnNormB)

		m.bk.MatVecT(sc.q, ly.wq, sc.h)
		m.bk.MatVecT(sc.k, ly.wk, sc.h)
		m.bk.MatVecT(sc.v, ly.wv, sc.h)
		if cfg.PosEnc == RoPE {
			m.applyRope(sc.q, cfg.NHeads, pos)
			m.applyRope(sc.k, cfg.NKVHeads, pos)
		}
		kv.AppendToken(l, sc.k, sc.v)

		m.attend(sc, kv, l, n, pos)

		m.bk.MatVecT(sc.proj, ly.wo, sc.attnOut)
		if cfg.ParallelAttn {
			// Falcon block: x = x + attn(h) + ffn(h), same normed input.
			tensor.Add(sc.x, sc.proj)
			m.ffn(sc, ly, sc.h)
		} else {
			tensor.Add(sc.x, sc.proj)
			m.norm(sc.h, sc.x, ly.ffnNormW, ly.ffnNormB)
			m.ffn(sc, ly, sc.h)
		}
	}
	return nil
}

// attend computes multi-head attention for the newest cache row (index
// n-1, at position qPos) over rows [0, n) of layer l, writing the merged
// heads to sc.attnOut. It walks the view's contiguous segments rather
// than fetching rows one at a time through the KV interface, so a
// segmented Seq attends as fast as a flat cache. The arithmetic is the
// backend's AttendRowBlock kernel, called as the 1-token block whose
// causal bound covers the whole cache.
func (m *Model) attend(sc *scratch, kv kvcache.KV, l, n, qPos int) {
	cfg := &m.Cfg
	if cap(sc.scores) < n {
		// Headroom: decode grows n by one per step; sizing exactly would
		// reallocate the score buffer every token of every reply.
		sc.scores = make([]float32, n+256)
	}
	sc.segs = kv.AppendSegments(sc.segs[:0], l, n)
	sc.spans = sc.spans[:0]
	for _, seg := range sc.segs {
		sc.spans = append(sc.spans, tensor.Span{K: seg.K, V: seg.V, Pos: seg.Pos})
	}
	sc.qPos[0] = qPos
	sc.att = tensor.AttendArgs{
		Q: &sc.qMat, Out: &sc.outMat,
		Spans: sc.spans, Past: n - 1, Positions: sc.qPos[:],
		NHeads: cfg.NHeads, Group: cfg.NHeads / cfg.NKVHeads,
		HeadDim: cfg.HeadDim(), Width: cfg.KVDim(),
		InvSqrt:     float32(1 / math.Sqrt(float64(cfg.HeadDim()))),
		AlibiSlopes: m.alibiSlope, // nil unless ALiBi
		Scores:      sc.scores[:n],
	}
	m.bk.AttendRowBlock(&sc.att)
}

// ffn applies the feed-forward block to h and adds it into sc.x.
func (m *Model) ffn(sc *scratch, ly *layer, h []float32) {
	m.bk.MatVecT(sc.ffn1, ly.w1, h)
	switch m.Cfg.Act {
	case SwiGLU:
		m.bk.SiLU(sc.ffn1)
		m.bk.MatVecT(sc.ffn3, ly.w3, h)
		tensor.Mul(sc.ffn1, sc.ffn3)
	case GELU:
		m.bk.GELU(sc.ffn1)
	}
	m.bk.MatVecT(sc.proj, ly.w2, sc.ffn1)
	tensor.Add(sc.x, sc.proj)
}

// applyRope rotates each head's (even, odd) pairs by the position's
// precomputed angle from the lookup tables.
func (m *Model) applyRope(vec []float32, nHeads, pos int) {
	hd := m.Cfg.HeadDim()
	half := hd / 2
	cosRow := m.ropeCos.Row(pos)
	sinRow := m.ropeSin.Row(pos)
	for h := 0; h < nHeads; h++ {
		base := h * hd
		for f := 0; f < half; f++ {
			c, s := cosRow[f], sinRow[f]
			a, b := vec[base+2*f], vec[base+2*f+1]
			vec[base+2*f] = a*c - b*s
			vec[base+2*f+1] = a*s + b*c
		}
	}
}

// norm applies the configured normalization.
func (m *Model) norm(dst, x, w, b []float32) {
	switch m.Cfg.Norm {
	case RMSNorm:
		m.bk.RMSNorm(dst, x, w, 1e-5)
	case LayerNorm:
		m.bk.LayerNorm(dst, x, w, b, 1e-5)
	}
}

// logits applies the final norm and the tied output head into fresh
// slices — for results that outlive the forward pass (prefill returns,
// the public Decode). Loops use logitsInto with scratch-owned buffers.
func (m *Model) logits(x []float32) []float32 {
	h := make([]float32, len(x))
	out := make([]float32, m.Cfg.VocabSize)
	m.logitsInto(out, h, x)
	return out
}

// logitsInto applies the final norm (using h, len Dim) and writes the
// output-head logits into dst (len VocabSize) through the backend's
// OutputHead kernel — the parallel backend shards the vocab scan into
// disjoint dst ranges, the scalar backend walks it sequentially; either
// way each logit is the same ascending-index dot product.
func (m *Model) logitsInto(dst, h, x []float32) {
	m.norm(h, x, m.finalNormW, m.finalNormB)
	m.bk.OutputHead([][]float32{dst}, m.embedding, [][]float32{h})
}
