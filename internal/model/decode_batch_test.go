package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kvcache"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// TestDecodeStepBatchBitIdentical: a fused batch of heterogeneous
// one-token lanes (plain decode, the k = 1 step) must produce, for every lane, exactly the logits and KV rows
// the solo decode path produces — across every architecture family
// (RoPE, ALiBi with position gaps, learned positions, parallel attn).
func TestDecodeStepBatchBitIdentical(t *testing.T) {
	for _, cfg := range allConfigs(41) {
		t.Run(cfg.Name, func(t *testing.T) {
			m := MustNew(cfg)
			r := rng.New(99)
			const lanesN = 4
			const steps = 6

			// Heterogeneous prefixes: different lengths, and for lane i>0 a
			// position gap of 32*i between prefix and decode, exercising the
			// ALiBi "white space" and RoPE table lookups off the dense path.
			prefixes := make([][]int, lanesN)
			positions := make([][]int, lanesN)
			for i := range prefixes {
				n := 3 + 2*i
				prefixes[i] = randTokens(r, n)
				positions[i] = seqPositions(n, 0)
			}

			// Solo reference: per lane, prefill then decode via the public
			// solo step (Decode allocates per call but shares step()).
			soloLogits := make([][][]float32, lanesN)
			soloKV := make([]*kvcache.Cache, lanesN)
			feeds := make([][]int, lanesN)
			for i := range prefixes {
				kv := m.NewCache(len(prefixes[i]) + steps)
				if _, err := m.Prefill(prefixes[i], positions[i], kv); err != nil {
					t.Fatal(err)
				}
				soloKV[i] = kv
				pos := kv.MaxPos() + 32*i // lane-specific gap
				feeds[i] = randTokens(rng.New(uint64(1000+i)), steps)
				for s := 0; s < steps; s++ {
					lg, err := m.Decode(feeds[i][s], pos+s, kv)
					if err != nil {
						t.Fatal(err)
					}
					soloLogits[i] = append(soloLogits[i], lg)
				}
			}

			// Fused: same prefixes, all lanes stepped together.
			lanes := make([]*DecodeLane, lanesN)
			kvs := make([]kvcache.KV, lanesN)
			basePos := make([]int, lanesN)
			for i := range prefixes {
				kv := m.NewCache(len(prefixes[i]) + steps)
				if _, err := m.Prefill(prefixes[i], positions[i], kv); err != nil {
					t.Fatal(err)
				}
				kvs[i] = kv
				basePos[i] = kv.MaxPos() + 32*i
				lanes[i] = m.NewDecodeLane()
				defer lanes[i].Close()
			}
			toks := make([][]int, lanesN)
			poss := make([][]int, lanesN)
			for s := 0; s < steps; s++ {
				for i := range lanes {
					toks[i] = []int{feeds[i][s]}
					poss[i] = []int{basePos[i] + s}
				}
				if err := m.DecodeStepBatchMulti(lanes, toks, poss, kvs); err != nil {
					t.Fatal(err)
				}
				for i, ln := range lanes {
					if err := ln.Err(); err != nil {
						t.Fatalf("lane %d step %d: %v", i, s, err)
					}
					if d := tensor.MaxAbsDiff(ln.Logits(), soloLogits[i][s]); d != 0 {
						t.Fatalf("lane %d step %d: fused logits diverge from solo by %v", i, s, d)
					}
				}
			}
			for i := range kvs {
				fused := kvs[i].(*kvcache.Cache)
				if fused.Len() != soloKV[i].Len() {
					t.Fatalf("lane %d: fused KV %d rows, solo %d", i, fused.Len(), soloKV[i].Len())
				}
				for l := 0; l < cfg.NLayers; l++ {
					if tensor.MaxAbsDiff(fused.K[l], soloKV[i].K[l]) != 0 || tensor.MaxAbsDiff(fused.V[l], soloKV[i].V[l]) != 0 {
						t.Fatalf("lane %d layer %d: fused KV rows diverge from solo", i, l)
					}
				}
			}
		})
	}
}

// TestDecodeStepBatchLaneError: an invalid lane reports through Err()
// and appends nothing, while the rest of the batch steps normally.
func TestDecodeStepBatchLaneError(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 5))
	prefix := randTokens(rng.New(3), 4)
	mk := func() *kvcache.Cache {
		kv := m.NewCache(8)
		if _, err := m.Prefill(prefix, seqPositions(4, 0), kv); err != nil {
			t.Fatal(err)
		}
		return kv
	}
	good, bad := mk(), mk()
	soloRef := mk()
	wantLogits, err := m.Decode(tokenizer.WordBase, 4, soloRef)
	if err != nil {
		t.Fatal(err)
	}

	lanes := []*DecodeLane{m.NewDecodeLane(), m.NewDecodeLane()}
	defer lanes[0].Close()
	defer lanes[1].Close()
	err = m.DecodeStepBatchMulti(lanes,
		[][]int{{tokenizer.WordBase}, {m.Cfg.VocabSize + 5}}, // lane 1: token out of vocab
		[][]int{{4}, {4}},
		[]kvcache.KV{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if lanes[0].Err() != nil {
		t.Fatalf("healthy lane failed: %v", lanes[0].Err())
	}
	if lanes[1].Err() == nil {
		t.Fatal("invalid lane reported no error")
	}
	if bad.Len() != 4 {
		t.Fatalf("failed lane appended rows: len=%d", bad.Len())
	}
	if good.Len() != 5 {
		t.Fatalf("healthy lane has %d rows, want 5", good.Len())
	}
	if d := tensor.MaxAbsDiff(lanes[0].Logits(), wantLogits); d != 0 {
		t.Fatalf("healthy lane diverged from solo by %v", d)
	}

	// Mismatched slice lengths are a caller bug, reported on the call.
	if err := m.DecodeStepBatchMulti(lanes, [][]int{{1}}, [][]int{{4}, {4}}, []kvcache.KV{good, bad}); err == nil {
		t.Fatal("expected shape error")
	}
	if err := m.DecodeStepBatchMulti(lanes, [][]int{{1}, {1, 2}}, [][]int{{4}, {4}}, []kvcache.KV{good, bad}); err == nil {
		t.Fatal("expected per-lane shape error")
	}
}

// TestDecodeStepBatchMultiMixedWidths: one fused step over lanes of
// widths 1–5 plus a failing lane must give every healthy lane, at every
// position, exactly the logits and KV rows of solo Decode calls, for
// every architecture and under both backends (the parallel one fans
// lanes out across workers). The failing lane's bad token sits mid-run,
// so all-or-nothing validation is what keeps its cache untouched.
func TestDecodeStepBatchMultiMixedWidths(t *testing.T) {
	for _, bk := range []tensor.Backend{tensor.Scalar(), tensor.NewParallel(3)} {
		for _, cfg := range allConfigs(57) {
			t.Run(cfg.Name+"/"+bk.Name(), func(t *testing.T) {
				m := MustNew(cfg)
				m.SetBackend(bk)
				r := rng.New(23)
				widths := []int{3, 1, 5, 2, 4, 3} // the last lane fails
				bad := len(widths) - 1

				prefixes := make([][]int, len(widths))
				runs := make([][]int, len(widths))
				for i, w := range widths {
					prefixes[i] = randTokens(r, 2+i)
					runs[i] = randTokens(r, w)
				}
				runs[bad][1] = m.Cfg.VocabSize // out of vocab, mid-run
				prefill := func(i int) *kvcache.Cache {
					kv := m.NewCache(len(prefixes[i]) + widths[i])
					if _, err := m.Prefill(prefixes[i], seqPositions(len(prefixes[i]), 0), kv); err != nil {
						t.Fatal(err)
					}
					return kv
				}
				// Lane i decodes after a position gap of 7·i.
				runPos := func(i int, kv *kvcache.Cache) []int {
					return seqPositions(widths[i], kv.MaxPos()+1+7*i)
				}

				lanes := make([]*DecodeLane, len(widths))
				kvs := make([]kvcache.KV, len(widths))
				toks := make([][]int, len(widths))
				poss := make([][]int, len(widths))
				for i := range widths {
					kv := prefill(i)
					kvs[i] = kv
					toks[i] = runs[i]
					poss[i] = runPos(i, kv)
					lanes[i] = m.NewDecodeLane()
					defer lanes[i].Close()
				}
				if err := m.DecodeStepBatchMulti(lanes, toks, poss, kvs); err != nil {
					t.Fatal(err)
				}

				for i := range widths {
					fused := kvs[i].(*kvcache.Cache)
					if i == bad {
						if lanes[i].Err() == nil {
							t.Fatal("failing lane reported no error")
						}
						if want := len(prefixes[i]); fused.Len() != want {
							t.Fatalf("failing lane appended rows: %d, want %d", fused.Len(), want)
						}
						continue
					}
					if err := lanes[i].Err(); err != nil {
						t.Fatalf("lane %d: %v", i, err)
					}
					solo := prefill(i)
					for j, pos := range runPos(i, solo) {
						want, err := m.Decode(runs[i][j], pos, solo)
						if err != nil {
							t.Fatal(err)
						}
						got := lanes[i].LogitsAt(j)
						for v := range want {
							if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
								t.Fatalf("lane %d (width %d) position %d: logit %d differs from solo: %v vs %v",
									i, widths[i], j, v, got[v], want[v])
							}
						}
					}
					if fused.Len() != solo.Len() {
						t.Fatalf("lane %d: fused KV %d rows, solo %d", i, fused.Len(), solo.Len())
					}
					for l := 0; l < cfg.NLayers; l++ {
						if tensor.MaxAbsDiff(fused.K[l], solo.K[l]) != 0 || tensor.MaxAbsDiff(fused.V[l], solo.V[l]) != 0 {
							t.Fatalf("lane %d layer %d: fused KV rows diverge from solo", i, l)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFusedStep times one DecodeStepBatchMulti call at the shapes a
// speculative batch-decode reply spends most of its steps in: 1–3 lanes
// whose drafts missed (width 1) or carry a short draft (width 3), plus a
// full batch of 8, each lane over a 330-row context with the serving
// vocabulary. Each iteration truncates the appended rows again, so the
// context length stays fixed.
func BenchmarkFusedStep(b *testing.B) {
	const ctxRows = 330
	m := MustNew(LlamaStyle(tokenizer.WordBase+8192, 1))
	r := rng.New(3)
	prompt := randTokens(r, ctxRows)
	for _, lanesN := range []int{1, 2, 3, 8} {
		for _, width := range []int{1, 3} {
			b.Run(fmt.Sprintf("lanes=%d/width=%d", lanesN, width), func(b *testing.B) {
				lanes := make([]*DecodeLane, lanesN)
				kvs := make([]kvcache.KV, lanesN)
				caches := make([]*kvcache.Cache, lanesN)
				toks := make([][]int, lanesN)
				poss := make([][]int, lanesN)
				for i := range lanes {
					caches[i] = m.NewCache(ctxRows + width)
					if _, err := m.Prefill(prompt, seqPositions(ctxRows, 0), caches[i]); err != nil {
						b.Fatal(err)
					}
					kvs[i] = caches[i]
					toks[i] = randTokens(r, width)
					poss[i] = seqPositions(width, ctxRows)
					lanes[i] = m.NewDecodeLane()
					defer lanes[i].Close()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					if err := m.DecodeStepBatchMulti(lanes, toks, poss, kvs); err != nil {
						b.Fatal(err)
					}
					for _, c := range caches {
						c.Truncate(ctxRows)
					}
				}
			})
		}
	}
}
