package model

import (
	"context"
	"fmt"

	"repro/internal/kvcache"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// Sampler selects the next token from logits.
type Sampler interface {
	Sample(logits []float32) int
}

// GreedySampler picks the argmax token. The paper uses deterministic
// (greedy) sampling for all accuracy comparisons (§5.3) so baseline and
// cached runs are directly comparable; so do we.
type GreedySampler struct{}

// Sample returns the argmax token id.
func (GreedySampler) Sample(logits []float32) int { return tensor.ArgMax(logits) }

// TemperatureSampler draws from the softmax distribution at the given
// temperature using a seeded generator.
type TemperatureSampler struct {
	Temperature float32
	RNG         *rng.RNG
}

// Sample draws a token proportional to exp(logit/T).
func (s *TemperatureSampler) Sample(logits []float32) int {
	t := s.Temperature
	if t <= 0 {
		return tensor.ArgMax(logits)
	}
	scaled := make([]float32, len(logits))
	for i, v := range logits {
		scaled[i] = v / t
	}
	tensor.Softmax(scaled)
	u := s.RNG.Float32()
	var acc float32
	for i, p := range scaled {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(scaled) - 1
}

// TopKSampler samples among the k highest logits at the given
// temperature, the truncation strategy most serving systems default to.
type TopKSampler struct {
	K           int
	Temperature float32
	RNG         *rng.RNG
}

// Sample draws from the renormalized top-k distribution.
func (s *TopKSampler) Sample(logits []float32) int {
	k := s.K
	if k <= 0 || k > len(logits) {
		k = len(logits)
	}
	// Partial selection of the top-k indices.
	idx := make([]int, len(logits))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if logits[idx[j]] > logits[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	top := make([]float32, k)
	t := s.Temperature
	if t <= 0 {
		return idx[0]
	}
	for i := 0; i < k; i++ {
		top[i] = logits[idx[i]] / t
	}
	tensor.Softmax(top)
	u := s.RNG.Float32()
	var acc float32
	for i, p := range top {
		acc += p
		if u < acc {
			return idx[i]
		}
	}
	return idx[k-1]
}

// RepetitionPenalty wraps a sampler, dividing the logits of
// recently-generated tokens by Penalty (> 1) before sampling — the
// standard mitigation for the token loops untrained and small models
// fall into.
type RepetitionPenalty struct {
	Inner   Sampler
	Penalty float32
	Window  int // how many recent tokens to penalize (0 = all)

	recent []int
}

// Sample applies the penalty and delegates to the inner sampler.
func (r *RepetitionPenalty) Sample(logits []float32) int {
	if r.Penalty <= 1 || len(r.recent) == 0 {
		tok := r.inner().Sample(logits)
		r.remember(tok)
		return tok
	}
	adjusted := make([]float32, len(logits))
	copy(adjusted, logits)
	for _, t := range r.recent {
		if t < 0 || t >= len(adjusted) {
			continue
		}
		if adjusted[t] > 0 {
			adjusted[t] /= r.Penalty
		} else {
			adjusted[t] *= r.Penalty
		}
	}
	tok := r.inner().Sample(adjusted)
	r.remember(tok)
	return tok
}

func (r *RepetitionPenalty) inner() Sampler {
	if r.Inner == nil {
		return GreedySampler{}
	}
	return r.Inner
}

func (r *RepetitionPenalty) remember(tok int) {
	r.recent = append(r.recent, tok)
	if r.Window > 0 && len(r.recent) > r.Window {
		r.recent = r.recent[len(r.recent)-r.Window:]
	}
}

// SpecPolicy selects whether a decode loop may use draft-and-verify
// speculative decoding. The default, SpecAuto, defers to the serving
// engine: speculation runs iff a draft source is configured there.
type SpecPolicy int

const (
	// SpecAuto speculates when the engine has a draft source.
	SpecAuto SpecPolicy = iota
	// SpecOn requests speculation (still a no-op without a draft source).
	SpecOn
	// SpecOff disables speculation for this generation.
	SpecOff
)

// SpecOpts carries per-generation speculation controls. Speculation never
// changes output — accepted drafts are exactly the tokens solo decode
// would have sampled — so these knobs trade verify-step width against
// wasted work, not quality.
type SpecOpts struct {
	Policy SpecPolicy
	// MaxDraft bounds draft tokens verified per fused step (default 4).
	MaxDraft int
}

// GenerateOpts controls autoregressive generation.
type GenerateOpts struct {
	MaxTokens int
	Sampler   Sampler
	// StopToken ends generation when sampled (defaults to tokenizer.EosID).
	StopToken int
	// Speculation configures draft-and-verify decode. The model's solo
	// loop ignores it; the continuous-batching scheduler in internal/core
	// honors it when a draft source is installed.
	Speculation SpecOpts
}

// Defaults fills unset fields with their documented defaults. Decode
// loops outside this package (the continuous-batching scheduler in
// internal/core) apply it so their per-request semantics match a solo
// Generate exactly.
func (o *GenerateOpts) Defaults() {
	if o.MaxTokens <= 0 {
		o.MaxTokens = 32
	}
	if o.Sampler == nil {
		o.Sampler = GreedySampler{}
	}
	if o.StopToken == 0 {
		o.StopToken = tokenizer.EosID
	}
	if o.Speculation.MaxDraft <= 0 {
		o.Speculation.MaxDraft = 4
	}
}

// Generate continues autoregressively from a prefilled cache and the
// final prefill logits, returning the generated token ids (stop token
// excluded). New tokens take consecutive positions after the cache's
// maximum position ID — the paper's observation that decode behaves
// identically under KV Cache and Prompt Cache (§3.4: "prompt modules are
// not employed beyond the initial token"). Cancelling ctx aborts between
// decode steps, returning ctx.Err() alongside the tokens produced so far.
func (m *Model) Generate(ctx context.Context, kv kvcache.KV, lastLogits []float32, opts GenerateOpts) ([]int, error) {
	return m.generate(ctx, kv, lastLogits, opts, nil)
}

// GenerateStream is Generate with per-token delivery: emit is called with
// each generated token id as soon as it is sampled; returning false stops
// generation early. The generated ids are also returned. Cancelling ctx
// aborts between decode steps with ctx.Err().
func (m *Model) GenerateStream(ctx context.Context, kv kvcache.KV, lastLogits []float32, opts GenerateOpts, emit func(token int) bool) ([]int, error) {
	if emit == nil {
		return nil, fmt.Errorf("model: GenerateStream requires an emit callback")
	}
	return m.generate(ctx, kv, lastLogits, opts, emit)
}

// generate is the solo decode loop, written as a single-lane client of
// the fused batch step: one DecodeLane, one-element batches. The
// continuous-batching scheduler in internal/core runs the same state
// machine over many lanes at once; keeping the solo path on the exact
// same step function is what makes "fused ≡ solo" a structural property
// rather than a test-enforced one.
func (m *Model) generate(ctx context.Context, kv kvcache.KV, lastLogits []float32, opts GenerateOpts, emit func(token int) bool) ([]int, error) {
	opts.Defaults()
	if kv.Len() == 0 {
		return nil, fmt.Errorf("model: Generate on empty cache")
	}
	if len(lastLogits) != m.Cfg.VocabSize {
		return nil, fmt.Errorf("model: logits width %d != vocab %d", len(lastLogits), m.Cfg.VocabSize)
	}
	var out []int
	lane := m.NewDecodeLane()
	defer lane.Close()
	lanes := []*DecodeLane{lane}
	tok, pos1 := make([]int, 1), make([]int, 1)
	toks, poss := [][]int{tok}, [][]int{pos1}
	kvs := []kvcache.KV{kv}
	logits := lastLogits
	pos := kv.MaxPos()
	for len(out) < opts.MaxTokens {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		next := opts.Sampler.Sample(logits)
		if next == opts.StopToken {
			break
		}
		out = append(out, next)
		if emit != nil && !emit(next) {
			break
		}
		pos++
		if pos >= m.Cfg.MaxSeq {
			break
		}
		tok[0], pos1[0] = next, pos
		if err := m.DecodeStepBatchMulti(lanes, toks, poss, kvs); err != nil {
			return out, err
		}
		if err := lane.Err(); err != nil {
			return out, err
		}
		logits = lane.Logits()
	}
	return out, nil
}

// Complete is the whole-prompt convenience path used as the paper's
// baseline: prefill tokens at positions 0..n-1 into a fresh cache, then
// generate. It returns the generated ids and the cache (for inspection).
func (m *Model) Complete(tokens []int, opts GenerateOpts) ([]int, *kvcache.Cache, error) {
	if len(tokens) == 0 {
		return nil, nil, fmt.Errorf("model: Complete with no tokens")
	}
	positions := make([]int, len(tokens))
	for i := range positions {
		positions[i] = i
	}
	cache := m.NewCache(len(tokens) + opts.MaxTokens)
	logits, err := m.Prefill(tokens, positions, cache)
	if err != nil {
		return nil, nil, err
	}
	out, err := m.Generate(context.Background(), cache, logits, opts)
	return out, cache, err
}
