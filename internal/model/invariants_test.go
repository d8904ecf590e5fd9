package model

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kvcache"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestCausality: cached states of a prefix must be bit-identical no
// matter what follows it — the property (§2.2) that makes KV caches, and
// hence Prompt Cache, sound for causal LMs.
func TestCausality(t *testing.T) {
	r := rng.New(61)
	for _, cfg := range allConfigs(71) {
		m := MustNew(cfg)
		prefix := randTokens(r, 6)
		suffixA := randTokens(r, 3)
		suffixB := randTokens(r, 3)

		run := func(suffix []int) *cacheSnapshot {
			all := append(append([]int{}, prefix...), suffix...)
			cache := m.NewCache(len(all))
			if _, err := m.Prefill(all, seqPositions(len(all), 0), cache); err != nil {
				t.Fatal(err)
			}
			return snapshotPrefix(cache, len(prefix))
		}
		a := run(suffixA)
		b := run(suffixB)
		for l := range a.k {
			if tensor.MaxAbsDiff(a.k[l], b.k[l]) != 0 || tensor.MaxAbsDiff(a.v[l], b.v[l]) != 0 {
				t.Fatalf("%s: prefix states depend on the future (layer %d)", cfg.Name, l)
			}
		}
	}
}

type cacheSnapshot struct{ k, v [][]float32 }

func snapshotPrefix(c *kvcache.Cache, n int) *cacheSnapshot {
	snap := &cacheSnapshot{}
	for l := 0; l < c.NLayers; l++ {
		var ks, vs []float32
		for i := 0; i < n; i++ {
			ks = append(ks, c.KeyRow(l, i)...)
			vs = append(vs, c.ValueRow(l, i)...)
		}
		snap.k = append(snap.k, ks)
		snap.v = append(snap.v, vs)
	}
	return snap
}

// goldenTrace runs the fixed golden workload on m and returns the greedy
// tokens it chose and an FNV-1a hash over the bits of every logit it
// produced, in order: a 20-token chunked prefill, 8 greedy solo decode
// steps, then one 4-position DecodeStepBatchMulti verify step (the
// greedy token plus three fixed drafts). The tokens include the argmax
// at each verify position.
func goldenTrace(t *testing.T, m *Model) ([]int, uint64) {
	t.Helper()
	h := fnv.New64a()
	var buf [4]byte
	absorb := func(lg []float32) int {
		for _, v := range lg {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
		return tensor.ArgMax(lg)
	}
	prompt := randTokens(rng.New(424242), 20)
	cache := m.NewCache(len(prompt) + 12)
	lg, err := m.Prefill(prompt, seqPositions(len(prompt), 0), cache)
	if err != nil {
		t.Fatal(err)
	}
	next := absorb(lg)
	var toks []int
	pos := cache.MaxPos()
	for s := 0; s < 8; s++ {
		toks = append(toks, next)
		pos++
		if lg, err = m.Decode(next, pos, cache); err != nil {
			t.Fatal(err)
		}
		next = absorb(lg)
	}
	lane := m.NewDecodeLane()
	defer lane.Close()
	draft := []int{next, prompt[0], prompt[1], prompt[2]}
	err = m.DecodeStepBatchMulti([]*DecodeLane{lane}, [][]int{draft},
		[][]int{seqPositions(len(draft), pos+1)}, []kvcache.KV{cache})
	if err == nil {
		err = lane.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	for j := range draft {
		toks = append(toks, absorb(lane.LogitsAt(j)))
	}
	return toks, h.Sum64()
}

// TestGoldenLogits pins the forward pass numerically: for a fixed seed
// and input, the greedy tokens and the exact bits of every logit along
// the way (prefill, solo decode, a multi-position verify step) must
// match values recorded before the kernels were last rewritten, under
// every backend. This guards the math (RoPE tables, norm epsilons,
// attention order, kernel accumulation order) against refactors. The
// hashes are pinned only where the Go compiler never fuses
// multiply-adds (amd64 below GOAMD64=v3) — elsewhere FMA contraction and
// assembly math routines legitimately change low bits, so there the
// test checks only that backends agree. If a deliberate numeric change
// breaks it, re-derive the table from the printed actual values.
func TestGoldenLogits(t *testing.T) {
	pinned := map[string]struct {
		toks []int
		hash uint64
	}{
		"llama-style":       {[]int{457, 457, 457, 457, 457, 457, 457, 457, 457, 457, 722, 457}, 0xdb3c0646186db1e0},
		"llama-style-large": {[]int{705, 705, 705, 705, 705, 705, 705, 705, 705, 705, 345, 705}, 0x8c778fbb2a382d16},
		"mpt-style":         {[]int{547, 604, 604, 324, 572, 572, 572, 572, 454, 707, 12, 550}, 0xc16a7b850f32c83b},
		"falcon-style":      {[]int{679, 656, 656, 656, 656, 656, 656, 656, 656, 709, 656, 692}, 0x2504f4aa84abb42},
		"gpt2-style":        {[]int{66, 703, 476, 476, 476, 476, 476, 476, 476, 151, 418, 476}, 0x81db1f7e7f17ee},
	}
	for _, bk := range []tensor.Backend{tensor.Scalar(), tensor.NewParallel(4)} {
		for _, cfg := range allConfigs(424242) {
			m := MustNew(cfg)
			m.SetBackend(bk)
			toks, hash := goldenTrace(t, m)
			want := pinned[cfg.Name]
			if fmt.Sprint(toks) != fmt.Sprint(want.toks) || (logitsPinned && hash != want.hash) {
				t.Fatalf("%s/%s: golden drifted; actual entry:\n%q: {%#v, %#x},",
					cfg.Name, bk.Name(), cfg.Name, toks, hash)
			}
		}
	}
}

// TestPrefillPropertyRandomized: random token/position sequences (sorted,
// in range) always produce finite logits and exact cache accounting, for
// every architecture.
func TestPrefillPropertyRandomized(t *testing.T) {
	cfgs := allConfigs(99)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		cfg := cfgs[int(seed)%len(cfgs)]
		m := MustNew(cfg)
		n := rr.IntRange(1, 12)
		toks := randTokens(rr, n)
		pos := make([]int, n)
		p := rr.Intn(50)
		for i := range pos {
			pos[i] = p
			p += 1 + rr.Intn(20) // strictly increasing with gaps
		}
		cache := m.NewCache(n)
		logits, err := m.Prefill(toks, pos, cache)
		if err != nil {
			return false
		}
		if cache.Len() != n {
			return false
		}
		for _, v := range logits {
			if v != v { // NaN
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
