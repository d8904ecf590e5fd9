package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/tokenizer"
	"repro/promptcache"
)

// checkOutputs re-serves a seeded sample of the completed requests, one
// at a time, on a fresh default client (no scheduler, tiers, mining or
// speculation) and compares the greedy token streams exactly. HTTP
// replies arrive as text, so the reference's token ids are rendered with
// the same fixed vocabulary the server holds before comparing. It
// returns the number of mismatching requests.
func checkOutputs(w *workload, seed uint64, outs []outcome, inputs []input) (int, error) {
	var done []outcome
	for _, o := range outs {
		if o.status == statusOK && !o.register {
			done = append(done, o)
		}
	}
	if len(done) == 0 {
		return 0, fmt.Errorf("output check: no completed requests to sample")
	}
	r := rngFor(seed, streamSample)
	perm := r.Perm(len(done))
	n := min(w.Sample, len(done))

	m, err := newModel()
	if err != nil {
		return 0, err
	}
	ref, err := newClient(m)
	if err != nil {
		return 0, err
	}
	for _, s := range w.schemas(seed) {
		if _, err := ref.RegisterSchema(s); err != nil {
			return 0, fmt.Errorf("output check: %w", err)
		}
	}
	dec := ref.Engine().Tokenizer()
	ctx := context.Background()
	solo := func(p string, maxTokens int) ([]int, error) {
		resp, err := ref.Infer(ctx, promptcache.Request{Prompt: p, Gen: promptcache.GenConfig{MaxTokens: maxTokens}})
		if err != nil {
			return nil, fmt.Errorf("output check: %w", err)
		}
		return resp.Tokens, nil
	}
	bad := 0
	for _, k := range perm[:n] {
		o := done[k]
		in := inputs[o.idx]
		ok := true
		switch {
		case in.Prompts != nil:
			for j, p := range in.Prompts {
				ids, err := solo(p, in.MaxTokens)
				if err != nil {
					return 0, err
				}
				if got := wireText(dec.Decode(ids)); got != o.texts[j] {
					ok = false
					fmt.Fprintf(os.Stderr, "perfbench: output check: batch prompt %d differs\nserver:    %q\nreference: %q\n", j, o.texts[j], got)
				}
			}
		case o.ids != nil:
			ids, err := solo(in.Prompt, in.MaxTokens)
			if err != nil {
				return 0, err
			}
			ok = slices.Equal(ids, o.ids)
		default:
			ids, err := solo(in.Prompt, in.MaxTokens)
			if err != nil {
				return 0, err
			}
			ok = slices.Equal(tokenTexts(dec, ids), o.texts)
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// tokenTexts renders each id alone, as /v1/stream sends them.
func tokenTexts(dec *tokenizer.Tokenizer, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = wireText(dec.Decode([]int{id}))
	}
	return out
}

// wireText is s as it reads after a JSON round trip: the server's JSON
// encoder replaces each byte of invalid UTF-8 (a lone byte-fallback
// token) with U+FFFD, so in-process text is compared in that form.
func wireText(s string) string {
	b, _ := json.Marshal(s)
	var out string
	_ = json.Unmarshal(b, &out)
	return out
}
