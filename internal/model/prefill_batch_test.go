package model

import (
	"context"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestChunkedPrefillMatchesSequential: the batched path must agree bit
// for bit with the per-token reference path on logits and on every
// cached K/V row, for all architectures, with past context and with
// position gaps. MatMul and MatVecT accumulate each output in the same
// order with the same zero-skips, so no tolerance is needed.
func TestChunkedPrefillMatchesSequential(t *testing.T) {
	r := rng.New(401)
	for _, cfg := range allConfigs(501) {
		m := MustNew(cfg)
		past := randTokens(r, 5)
		chunk := randTokens(r, 24) // above chunkThreshold

		// Sequential reference: past then chunk, token by token.
		seq := m.NewCache(32)
		if _, err := m.prefillSequential(context.Background(), past, seqPositions(5, 0), seq); err != nil {
			t.Fatal(err)
		}
		wantLogits, err := m.prefillSequential(context.Background(), chunk, seqPositions(24, 10), seq) // gap at 5..9
		if err != nil {
			t.Fatal(err)
		}

		// Batched path over the same inputs.
		bat := m.NewCache(32)
		if _, err := m.prefillSequential(context.Background(), past, seqPositions(5, 0), bat); err != nil {
			t.Fatal(err)
		}
		gotLogits, err := m.prefillChunk(context.Background(), chunk, seqPositions(24, 10), bat)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(wantLogits, gotLogits); d != 0 {
			t.Fatalf("%s: chunked logits differ by %v", cfg.Name, d)
		}
		if seq.Len() != bat.Len() {
			t.Fatalf("%s: cache lengths differ", cfg.Name)
		}
		for l := 0; l < cfg.NLayers; l++ {
			if d := tensor.MaxAbsDiff(seq.K[l], bat.K[l]); d != 0 {
				t.Fatalf("%s: layer %d keys differ by %v", cfg.Name, l, d)
			}
			if d := tensor.MaxAbsDiff(seq.V[l], bat.V[l]); d != 0 {
				t.Fatalf("%s: layer %d values differ by %v", cfg.Name, l, d)
			}
		}
		for i := range seq.Pos {
			if seq.Pos[i] != bat.Pos[i] {
				t.Fatalf("%s: positions differ at %d", cfg.Name, i)
			}
		}
	}
}

// TestPrefillDispatch: Prefill takes the chunked path above the
// threshold and both paths reject bad inputs identically.
func TestPrefillDispatch(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 601))
	r := rng.New(601)
	big := randTokens(r, chunkThreshold)
	cache := m.NewCache(chunkThreshold)
	if _, err := m.Prefill(big, seqPositions(chunkThreshold, 0), cache); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != chunkThreshold {
		t.Fatalf("cache len %d", cache.Len())
	}
	// Bad token / position rejected by the chunked path too.
	if _, err := m.Prefill(make([]int, chunkThreshold), append(make([]int, chunkThreshold-1), m.Cfg.MaxSeq), m.NewCache(0)); err == nil {
		t.Fatal("expected position error")
	}
	bad := randTokens(r, chunkThreshold)
	bad[3] = testVocab + 1
	if _, err := m.Prefill(bad, seqPositions(chunkThreshold, 0), m.NewCache(0)); err == nil {
		t.Fatal("expected vocab error")
	}
}

// TestChunkedGenerationEndToEnd: a full Complete() through the chunked
// path generates exactly what the sequential path generates.
func TestChunkedGenerationEndToEnd(t *testing.T) {
	r := rng.New(701)
	for _, cfg := range allConfigs(701) {
		m := MustNew(cfg)
		toks := randTokens(r, 40)

		seqCache := m.NewCache(64)
		seqLogits, err := m.prefillSequential(context.Background(), toks, seqPositions(40, 0), seqCache)
		if err != nil {
			t.Fatal(err)
		}
		seqGen, err := m.Generate(context.Background(), seqCache, seqLogits, GenerateOpts{MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}

		out, _, err := m.Complete(toks, GenerateOpts{MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(seqGen) {
			t.Fatalf("%s: generation lengths differ (%d vs %d)", cfg.Name, len(out), len(seqGen))
		}
		for i := range out {
			if out[i] != seqGen[i] {
				t.Fatalf("%s: generations diverge at %d", cfg.Name, i)
			}
		}
	}
}

func BenchmarkPrefill256Sequential(b *testing.B) {
	m := MustNew(LlamaStyle(testVocab, 1))
	r := rng.New(1)
	toks := randTokens(r, 256)
	pos := seqPositions(256, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := m.NewCache(256)
		if _, err := m.prefillSequential(context.Background(), toks, pos, cache); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefill256Chunked(b *testing.B) {
	m := MustNew(LlamaStyle(testVocab, 1))
	r := rng.New(1)
	toks := randTokens(r, 256)
	pos := seqPositions(256, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := m.NewCache(256)
		if _, err := m.prefillChunk(context.Background(), toks, pos, cache); err != nil {
			b.Fatal(err)
		}
	}
}
