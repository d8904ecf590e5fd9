package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"
)

// Every workload is built from the --seed argument alone: schemas,
// prompts and arrival times come from PCG streams keyed by the seed and a
// per-purpose stream id, so the same seed always yields the same inputs.
const (
	streamSchema = iota + 1
	streamInputs
	streamWarmup
	streamArrivals
	streamSample
)

func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// word renders pool entry i of a named pool as a pronounceable lowercase
// word. The prefix letter keeps the pools apart.
func word(prefix byte, i int) string {
	const cons = "bdfgklmnprstvz"
	const vows = "aeiou"
	var sb strings.Builder
	sb.WriteByte(prefix)
	n := i
	for k := 0; k < 3 || n > 0; k++ {
		sb.WriteByte(cons[n%len(cons)])
		n /= len(cons)
		sb.WriteByte(vows[n%len(vows)])
		n /= len(vows)
	}
	return sb.String()
}

// Word pools: document text draws from a small vocabulary so documents
// read alike; questions and unshared text draw from a large one so no
// two requests share a prefix worth mining.
const (
	docPool      = 1024
	questionPool = 4096
)

func words(r *rand.Rand, prefix byte, pool, n int) string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = word(prefix, r.IntN(pool))
	}
	return strings.Join(ws, " ")
}

// input is one unit of work the generator sends: a single prompt, or a
// batch of prompts for /v1/complete_batch. Register, when set, makes
// the operation a registration of that schema instead of an inference.
type input struct {
	Prompt    string
	Prompts   []string
	MaxTokens int
	Speculate bool
	Register  string
}

// workload is one traffic mix: what the server holds, what is sent, and
// how it arrives.
type workload struct {
	Name string
	// HTTP workloads drive a pcserve process; the others call an
	// in-process promptcache.Client.
	HTTP  bool
	Batch bool // /v1/complete_batch instead of /v1/stream
	// Rates is the open-loop rate ladder in requests per second, in
	// increasing order, run after the closed loop; nil means none.
	Rates  []float64
	Limits sloLimits
	// Warmup is the number of untimed seeded operations sent before
	// measuring, TracedWarmup the number each traced-pass engine gets;
	// Sample the number of requests re-served by the output check;
	// Traced the number of requests in the traced pass.
	Warmup, TracedWarmup, Sample, Traced int

	schemas func(seed uint64) []string
	gen     func(seed uint64, r *rand.Rand, i int) input
	// tiers is true for the in-process tier configuration.
	tiers bool
}

const (
	ragDocs          = 16
	ragDocWords      = 384
	ragHeaders       = 4
	ragHeaderWords   = 24
	ragQuestionWords = 16
	ragMaxTokens     = 16

	unsharedWords    = 256
	unsharedMaxToken = 16

	batchDocs      = 8
	batchDocWords  = 256
	batchPrompts   = 8
	batchSuffix    = 8
	batchMaxTokens = 128

	churnDocs       = 20
	churnDocWords   = 384
	churnWords      = 16
	churnMaxTokens  = 8
	churnResident   = 5  // modules each of the device and host tiers hold
	churnRegisterN  = 25 // every Nth operation re-registers the side schema
	churnSideWords  = 64
	systemWords     = 24
	tinySystemWords = 8
)

// docSchema renders a schema with a system module and n document
// modules of w words each, all seeded from r.
func docSchema(name string, r *rand.Rand, sysWords, n, w int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<schema name=%q>", name)
	fmt.Fprintf(&sb, "<module name=\"sys\">%s</module>", words(r, 's', docPool, sysWords))
	for d := 0; d < n; d++ {
		fmt.Fprintf(&sb, "<module name=\"doc%d\">%s</module>", d, words(r, 'd', docPool, w))
	}
	sb.WriteString("</schema>")
	return sb.String()
}

func prompt(schema string, docs []int, text string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<prompt schema=%q><sys/>", schema)
	for _, d := range docs {
		fmt.Fprintf(&sb, "<doc%d/>", d)
	}
	sb.WriteString(text)
	sb.WriteString("</prompt>")
	return sb.String()
}

// ragHeader is few-shot header h: shared by many requests but declared
// in no schema, so only mining can cache it.
func ragHeader(seed uint64, h int) string {
	return words(rngFor(seed, 100+uint64(h)), 'h', docPool, ragHeaderWords)
}

func workloads() []*workload {
	return []*workload{
		{
			Name: "rag-stream", HTTP: true,
			Rates:  []float64{4, 12, 48},
			Limits: sloLimits{TTFT: 200 * time.Millisecond, TPOT: 10 * time.Millisecond},
			Warmup: 64, TracedWarmup: 16, Sample: 8, Traced: 32,
			schemas: func(seed uint64) []string {
				return []string{docSchema("rag", rngFor(seed, streamSchema), systemWords, ragDocs, ragDocWords)}
			},
			gen: func(seed uint64, r *rand.Rand, _ int) input {
				// Two distinct documents by Zipf popularity, imported in
				// layout order.
				z := rand.NewZipf(r, 1.2, 1, ragDocs-1)
				a := int(z.Uint64())
				b := a
				for b == a {
					b = int(z.Uint64())
				}
				docs := []int{a, b}
				sort.Ints(docs)
				h := r.IntN(ragHeaders)
				text := ragHeader(seed, h) + " " + words(r, 'q', questionPool, ragQuestionWords)
				return input{Prompt: prompt("rag", docs, text), MaxTokens: ragMaxTokens}
			},
		},
		{
			Name: "unshared-prefill", HTTP: true,
			Rates:  []float64{6},
			Limits: sloLimits{TTFT: 250 * time.Millisecond, TPOT: 5 * time.Millisecond},
			Warmup: 16, TracedWarmup: 8, Sample: 4, Traced: 16,
			schemas: func(seed uint64) []string {
				return []string{docSchema("plain", rngFor(seed, streamSchema), tinySystemWords, 0, 0)}
			},
			gen: func(seed uint64, r *rand.Rand, _ int) input {
				return input{Prompt: prompt("plain", nil, words(r, 'u', questionPool, unsharedWords)), MaxTokens: unsharedMaxToken}
			},
		},
		{
			Name: "batch-decode", HTTP: true, Batch: true,
			Limits: sloLimits{TTFT: 2 * time.Second, TPOT: 20 * time.Millisecond},
			Warmup: 6, TracedWarmup: 2, Sample: 2, Traced: 3,
			schemas: func(seed uint64) []string {
				return []string{docSchema("batch", rngFor(seed, streamSchema), systemWords, batchDocs, batchDocWords)}
			},
			gen: func(seed uint64, r *rand.Rand, _ int) input {
				in := input{MaxTokens: batchMaxTokens, Speculate: true}
				for j := 0; j < batchPrompts; j++ {
					in.Prompts = append(in.Prompts, prompt("batch", []int{r.IntN(batchDocs)}, words(r, 'q', questionPool, batchSuffix)))
				}
				return in
			},
		},
		{
			Name: "tier-churn", tiers: true,
			Limits: sloLimits{TTFT: 250 * time.Millisecond, TPOT: 10 * time.Millisecond},
			Warmup: 24, TracedWarmup: 16, Sample: 6, Traced: 40,
			schemas: func(seed uint64) []string {
				return []string{docSchema("churn", rngFor(seed, streamSchema), tinySystemWords, churnDocs, churnDocWords)}
			},
			gen: func(_ uint64, r *rand.Rand, i int) input {
				if i%churnRegisterN == churnRegisterN-1 {
					return input{Register: fmt.Sprintf("<schema name=\"side\"><module name=\"sys\">%s</module></schema>",
						words(r, 'r', docPool, churnSideWords))}
				}
				a := r.IntN(churnDocs)
				b := a
				for b == a {
					b = r.IntN(churnDocs)
				}
				docs := []int{a, b}
				sort.Ints(docs)
				return input{Prompt: prompt("churn", docs, words(r, 'q', questionPool, churnWords)), MaxTokens: churnMaxTokens}
			},
		},
	}
}

// ladderShare is the share of the measured time the open-loop rate
// ladder runs, split evenly across its rungs; the closed loop runs the
// rest.
const ladderShare = 0.3

// inputs returns n inputs of w from the given seed stream.
func (w *workload) inputs(seed, stream uint64, n int) []input {
	r := rngFor(seed, stream)
	out := make([]input, n)
	for i := range out {
		out[i] = w.gen(seed, r, i)
	}
	return out
}

// schedule returns n Poisson arrival offsets at rate per second, from
// the seed's arrival stream for rung k. The gaps are rescaled so the
// last arrival lands exactly at n/rate: every seed offers the same mean
// rate, and only the burst pattern varies.
func schedule(seed uint64, k, n int, rate float64) []time.Duration {
	r := rngFor(seed, streamArrivals+uint64(16*k))
	gaps := make([]float64, n)
	sum := 0.0
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		sum += gaps[i]
	}
	span := float64(n) / rate
	out := make([]time.Duration, n)
	t := 0.0
	for i, g := range gaps {
		t += g / sum * span
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
