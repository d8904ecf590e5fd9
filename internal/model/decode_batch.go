package model

import (
	"fmt"
	"sync"

	"repro/internal/kvcache"
	"repro/internal/tensor"
)

// DecodeLane is one sequence's slot in a fused decode batch. It owns the
// pooled scratch the lane's forward passes run in, so a lane that decodes
// a whole reply through DecodeStepBatchMulti allocates nothing per token —
// exactly the property the solo decode loop has. Acquire with
// NewDecodeLane, release with Close.
//
// A lane is not synchronized: it belongs to whichever goroutine is
// driving the batch (the continuous-batching scheduler, or a solo
// generation loop using itself as a batch of one).
type DecodeLane struct {
	m  *Model
	sc *scratch

	// per-step state, valid between a DecodeStepBatchMulti call and the
	// next: err/skip record a lane that failed validation and is excluded
	// from the fused walk; extra holds pooled scratch for positions
	// 1..k-1 (position 0 runs in sc, so plain decode needs no extra);
	// mpos/mrows are the per-position query positions and attention row
	// counts, mk the position count of the lane's current step.
	err   error
	skip  bool
	extra []*scratch
	mpos  []int
	mrows []int
	mk    int
}

// NewDecodeLane acquires a lane backed by pooled scratch.
func (m *Model) NewDecodeLane() *DecodeLane {
	return &DecodeLane{m: m, sc: m.getScratch()}
}

// Close returns the lane's scratch to the model pool. The lane (and any
// logits it returned) must not be used afterwards. Closing twice is safe.
func (l *DecodeLane) Close() {
	if l.sc != nil {
		l.m.putScratch(l.sc)
		l.sc = nil
	}
	for _, sc := range l.extra {
		l.m.putScratch(sc)
	}
	l.extra = nil
}

// Logits returns the lane's next-token logits at position 0 of the
// latest DecodeStepBatchMulti call — the only position of a plain decode
// step. The slice aliases lane scratch: it is valid until the lane's
// next step or Close, and must not be mutated.
func (l *DecodeLane) Logits() []float32 { return l.sc.lgOut }

// LogitsAt returns the next-token logits computed at position j of the
// latest DecodeStepBatchMulti call (LogitsAt(0) == Logits()). Same
// aliasing rules as Logits.
func (l *DecodeLane) LogitsAt(j int) []float32 { return l.scratchAt(j).lgOut }

// scratchAt maps a step position to its scratch: position 0 is the
// lane's own, the rest come from the extra pool.
func (l *DecodeLane) scratchAt(j int) *scratch {
	if j == 0 {
		return l.sc
	}
	return l.extra[j-1]
}

// growMulti sizes the lane for a k-position step, acquiring extra pooled
// scratch on first use and keeping it for the lane's lifetime so steady
// speculative decode allocates nothing per step.
func (l *DecodeLane) growMulti(k int) {
	for len(l.extra) < k-1 {
		l.extra = append(l.extra, l.m.getScratch())
	}
	if cap(l.mpos) < k {
		l.mpos = make([]int, k)
		l.mrows = make([]int, k)
	}
	l.mpos = l.mpos[:k]
	l.mrows = l.mrows[:k]
	l.mk = k
}

// Err reports the lane's failure from the latest DecodeStepBatchMulti
// call, or nil. A failed lane appended nothing to its cache; other lanes
// in the same batch are unaffected.
func (l *DecodeLane) Err() error { return l.err }

// outputHeads is reusable header scratch for the batched output head of
// one fused step, pooled on the model so steps allocate nothing.
type outputHeads struct{ dsts, hs [][]float32 }

// DecodeStepBatchMulti runs one fused autoregressive step for every
// lane: lane i appends tokens[i][j] at positions[i][j] to kvs[i] for
// every j and computes next-token logits at each of its k positions
// (read them with lanes[i].LogitsAt(j)). Plain decode is the k = 1 case,
// one token per lane; the speculative-decoding verify step scores a
// sampled token plus its drafts. The layer loop runs once for the whole
// batch — each layer's weights are walked a single time while every
// lane's positions pass through it — which is what lets a
// continuous-batching scheduler charge N concurrent generations one
// shared model traversal per step instead of N independent ones.
//
// Bit-identity with sequential solo decode is structural, by the same
// argument that makes prefill and decode agree: the walk is layer-outer,
// lane-inner, position-inner, and every per-position operation — norm,
// QKV projections, RoPE at that position, AppendToken, attention over
// that position's causal row count, projection, FFN — has exactly the
// inputs and reduction order the solo step() sequence would give it.
// Position j's attention at layer l sees rows 0..base+j, whose layer-l
// K/V values were appended earlier in the same layer pass and equal the
// sequential values. So a lane's logits are bit-identical whether it
// steps solo or fused with any batch of neighbors, and if the scored
// tokens match what solo decode would have sampled, the logits at every
// position match bit-for-bit — the invariant the speculation acceptance
// loop in internal/core relies on, and what lets rejected drafts fall
// back to the verified token without recomputing anything.
//
// Validation is all-or-nothing per lane: a lane with any out-of-range
// token or position appends nothing to its cache and is excluded from
// the walk, reported via Err() without disturbing the rest of the batch.
// The returned error is reserved for malformed calls (mismatched slice
// shapes, a lane with no tokens).
func (m *Model) DecodeStepBatchMulti(lanes []*DecodeLane, tokens, positions [][]int, kvs []kvcache.KV) error {
	if len(lanes) != len(tokens) || len(lanes) != len(positions) || len(lanes) != len(kvs) {
		return fmt.Errorf("model: DecodeStepBatchMulti lanes=%d tokens=%d positions=%d kvs=%d",
			len(lanes), len(tokens), len(positions), len(kvs))
	}
	cfg := &m.Cfg

	// Embed + validate each lane and record its positions before the
	// layer loop, mirroring the head of step(): after layer l every cache
	// has exactly len(Pos) rows.
	active := 0
	for i, ln := range lanes {
		ln.err = nil
		ln.skip = false
		ln.mk = 0
		toks, poss := tokens[i], positions[i]
		if len(toks) == 0 || len(toks) != len(poss) {
			return fmt.Errorf("model: DecodeStepBatchMulti lane %d has %d tokens but %d positions",
				i, len(toks), len(poss))
		}
		// Validate the whole lane before touching its cache, so a failed
		// lane appended nothing.
		for j := range toks {
			if tok := toks[j]; tok < 0 || tok >= cfg.VocabSize {
				ln.err = fmt.Errorf("model: token %d out of vocab %d", tok, cfg.VocabSize)
				ln.skip = true
				break
			}
			if pos := poss[j]; pos < 0 || pos >= cfg.MaxSeq {
				ln.err = fmt.Errorf("model: position %d out of range [0,%d)", pos, cfg.MaxSeq)
				ln.skip = true
				break
			}
		}
		if ln.skip {
			continue
		}
		active++
		ln.growMulti(len(toks))
		for j := range toks {
			sc := ln.scratchAt(j)
			copy(sc.x, m.embedding.Row(toks[j]))
			if cfg.PosEnc == Learned {
				tensor.Add(sc.x, m.posTable.Row(poss[j]))
			}
			kvs[i].AppendPos(poss[j])
			ln.mpos[j] = poss[j]
			ln.mrows[j] = kvs[i].Len()
		}
	}

	// The fused walk. Lanes share nothing but the read-only weights, so
	// a multi-worker backend fans whole lanes out across goroutines —
	// each worker runs the full layer loop for a contiguous lane range,
	// which keeps every lane's per-layer operation sequence exactly
	// step()'s and therefore bit-identical to a solo decode.
	if workers := m.bk.Workers(); workers > 1 && active >= 2 {
		if workers > len(lanes) {
			workers = len(lanes)
		}
		chunk := (len(lanes) + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < len(lanes); lo += chunk {
			hi := lo + chunk
			if hi > len(lanes) {
				hi = len(lanes)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				m.stepLanes(lanes[lo:hi], kvs[lo:hi])
			}(lo, hi)
		}
		wg.Wait()
	} else {
		m.stepLanes(lanes, kvs)
	}

	// Output head, batched over every (lane, position) pair: each vocab
	// row of the tied embedding — the model's largest matrix — is walked
	// once per group of up to four logit vectors instead of once per
	// vector. Per-vector dot products are unchanged in value and order,
	// preserving bit-identity.
	oh, _ := m.headPool.Get().(*outputHeads)
	if oh == nil {
		oh = new(outputHeads)
	}
	for _, ln := range lanes {
		if ln.skip {
			continue
		}
		for j := 0; j < ln.mk; j++ {
			sc := ln.scratchAt(j)
			if sc.lgOut == nil {
				sc.lgH = make([]float32, cfg.Dim)
				sc.lgOut = make([]float32, cfg.VocabSize)
			}
			m.norm(sc.lgH, sc.x, m.finalNormW, m.finalNormB)
			oh.dsts = append(oh.dsts, sc.lgOut)
			oh.hs = append(oh.hs, sc.lgH)
		}
	}
	m.bk.OutputHead(oh.dsts, m.embedding, oh.hs)
	// Drop the references so the pool does not pin lane scratch.
	clear(oh.dsts)
	clear(oh.hs)
	oh.dsts, oh.hs = oh.dsts[:0], oh.hs[:0]
	m.headPool.Put(oh)
	return nil
}

// stepLanes runs the fused layer walk for a lane range: layer-outer,
// lane-inner, position-inner. Within a lane, position j's operation
// sequence at each layer is identical to step()'s, and its attention row
// count ln.mrows[j] covers exactly the rows a sequential decode would
// have cached before it. Across lanes nothing is shared but the
// (read-only) weights, so neither lane order nor the worker split above
// can change any lane's numbers.
func (m *Model) stepLanes(lanes []*DecodeLane, kvs []kvcache.KV) {
	cfg := &m.Cfg
	for l := range m.layers {
		ly := &m.layers[l]
		for i, ln := range lanes {
			if ln.skip {
				continue
			}
			for j := 0; j < ln.mk; j++ {
				sc := ln.scratchAt(j)
				pos := ln.mpos[j]
				m.norm(sc.h, sc.x, ly.attnNormW, ly.attnNormB)

				m.bk.MatVecT(sc.q, ly.wq, sc.h)
				m.bk.MatVecT(sc.k, ly.wk, sc.h)
				m.bk.MatVecT(sc.v, ly.wv, sc.h)
				if cfg.PosEnc == RoPE {
					m.applyRope(sc.q, cfg.NHeads, pos)
					m.applyRope(sc.k, cfg.NKVHeads, pos)
				}
				kvs[i].AppendToken(l, sc.k, sc.v)

				m.attend(sc, kvs[i], l, ln.mrows[j], pos)

				m.bk.MatVecT(sc.proj, ly.wo, sc.attnOut)
				if cfg.ParallelAttn {
					tensor.Add(sc.x, sc.proj)
					m.ffn(sc, ly, sc.h)
				} else {
					tensor.Add(sc.x, sc.proj)
					m.norm(sc.h, sc.x, ly.ffnNormW, ly.ffnNormB)
					m.ffn(sc, ly, sc.h)
				}
			}
		}
	}
}
