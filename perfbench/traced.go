package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/server"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// The traced pass replays the first Traced inputs of a run sequentially
// through four identically configured in-process engines that see the
// same operations in the same order, so their states evolve alike:
//
//	front   the workload's entry point with the timing backend:
//	        server.Server.ServeHTTP for HTTP workloads, Client.Infer
//	        otherwise
//	plain   the same entry point without the timing backend, for the
//	        tracing overhead
//	infer   Client.Infer / InferBatch with the timing backend (HTTP
//	        workloads only), so server self time is front − infer
//	engine  core.Cache.Serve then Generate with the timing backend, for
//	        the engine spans and their kernel time
//
// Spans are timed from outside each public call; a span's self time is
// its duration minus the kernel wall time inside it. Because the pass is
// sequential, every kernel call belongs to the request in flight.

type mirror struct {
	client *promptcache.Client
	http   *server.Server // nil for in-process entry points
	bk     *timedBackend  // nil when untraced
	dir    string
}

func newMirror(w *workload, seed uint64, workdir, name string, traced, front bool) (*mirror, []time.Duration, error) {
	m, err := newModel()
	if err != nil {
		return nil, nil, err
	}
	mr := &mirror{}
	if w.tiers {
		mr.dir = filepath.Join(workdir, "tiers-"+strconv.Itoa(os.Getpid())+"-"+name)
		if err := os.MkdirAll(mr.dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	opts := engineOptions(w, m, mr.dir)
	if traced {
		mr.bk = newTimedBackend(m.Backend())
		opts = append(opts, core.WithBackend(mr.bk))
	}
	if mr.client, err = newClient(m, opts...); err != nil {
		return nil, nil, err
	}
	if front && w.HTTP {
		mr.http = server.New(mr.client)
	}
	var reg []time.Duration
	for _, s := range w.schemas(seed) {
		t0 := time.Now()
		if _, err := mr.client.RegisterSchema(s); err != nil {
			mr.close()
			return nil, nil, err
		}
		reg = append(reg, time.Since(t0))
	}
	return mr, reg, nil
}

func (mr *mirror) close() {
	if mr.dir != "" {
		_ = os.RemoveAll(mr.dir)
	}
}

func (mr *mirror) busy() time.Duration {
	if mr.bk == nil {
		return 0
	}
	return mr.bk.busyTime()
}

// reply is one mirror's output for an input: per-token texts for a
// stream, per-prompt texts for a batch, token ids in process.
type reply struct {
	texts []string
	ids   [][]int
}

// viaHTTP runs in through the mirror's http.Handler.
func (mr *mirror) viaHTTP(in input) (reply, error) {
	path := "/v1/stream"
	if in.Prompts != nil {
		path = "/v1/complete_batch"
	}
	b, _ := json.Marshal(bodyFor(in))
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	mr.http.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return reply{}, fmt.Errorf("%s: %d %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var rp reply
	if in.Prompts != nil {
		var br batchReply
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			return reply{}, err
		}
		for _, r := range br.Results {
			rp.texts = append(rp.texts, r.Text)
		}
		return rp, nil
	}
	err := readSSE(rec.Body, func(ev sseEvent, _ time.Time) {
		if ev.Token != nil {
			rp.texts = append(rp.texts, *ev.Token)
		}
	})
	return rp, err
}

// viaInfer runs in through Client.Infer or InferBatch. For a single
// prompt the reply holds both the ids and their per-token texts, so it
// compares with either an HTTP or an in-process reply.
func (mr *mirror) viaInfer(in input) (reply, error) {
	ctx := context.Background()
	gen := promptcache.GenConfig{MaxTokens: in.MaxTokens}
	if in.Speculate {
		on := true
		gen.Speculation = promptcache.SpecConfig{Enabled: &on}
	}
	var rp reply
	if in.Prompts != nil {
		br, err := mr.client.InferBatch(ctx, promptcache.BatchRequest{Prompts: in.Prompts, Gen: gen})
		if err != nil {
			return reply{}, err
		}
		for _, r := range br.Results {
			rp.texts = append(rp.texts, wireText(r.Text))
			rp.ids = append(rp.ids, r.Tokens)
		}
		return rp, nil
	}
	resp, err := mr.client.Infer(ctx, promptcache.Request{Prompt: in.Prompt, Gen: gen})
	if err != nil {
		return reply{}, err
	}
	return reply{texts: tokenTexts(mr.client.Engine().Tokenizer(), resp.Tokens), ids: [][]int{resp.Tokens}}, nil
}

// engineSpans is one input's engine-level timing.
type engineSpans struct {
	serve, serveKernel, gen, genKernel time.Duration
	prefillTokens                      int
	decodePositions                    int64
}

// viaEngine runs in through core.Cache.Serve (ServeBatch for a batch)
// and Generate, timing each against the mirror's kernel time. A batch
// decodes its prompts concurrently, as InferBatch does.
func (mr *mirror) viaEngine(in input) (reply, engineSpans, error) {
	eng := mr.client.Engine()
	ctx := context.Background()
	opts := model.GenerateOpts{MaxTokens: in.MaxTokens}
	if in.Speculate {
		opts.Speculation.Policy = model.SpecOn
	}
	var sp engineSpans
	t0, k0 := time.Now(), mr.busy()
	var results []*core.ServeResult
	if in.Prompts != nil {
		ctx = core.WithSLOClass(ctx, core.SLOBatch)
		rs, _, err := eng.ServeBatch(ctx, in.Prompts, core.ServeOpts{})
		if err != nil {
			return reply{}, sp, err
		}
		results = rs
	} else {
		res, err := eng.Serve(ctx, in.Prompt, core.ServeOpts{})
		if err != nil {
			return reply{}, sp, err
		}
		results = []*core.ServeResult{res}
	}
	t1, k1, p1 := time.Now(), mr.busy(), mr.bk.posOutputHead.Load()
	sp.serve, sp.serveKernel = t1.Sub(t0), k1-k0
	for _, r := range results {
		sp.prefillTokens += r.NewTokens
	}
	ids := make([][]int, len(results))
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i, r := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i], errs[i] = eng.Generate(ctx, r, opts)
			r.Close()
		}()
	}
	wg.Wait()
	sp.gen, sp.genKernel = time.Since(t1), mr.busy()-k1
	sp.decodePositions = mr.bk.posOutputHead.Load() - p1
	for _, err := range errs {
		if err != nil {
			return reply{}, sp, err
		}
	}
	rp := reply{ids: ids}
	if in.Prompts != nil {
		for _, id := range ids {
			rp.texts = append(rp.texts, wireText(eng.Tokenizer().Decode(id)))
		}
	} else {
		rp.texts = tokenTexts(eng.Tokenizer(), ids[0])
	}
	return rp, sp, nil
}

// span is one timed call, written to the trace file when the run ends.
type span struct {
	Req      int     `json:"req"`
	Layer    string  `json:"layer"`
	Parent   string  `json:"parent,omitempty"`
	StartUs  float64 `json:"start_us"`
	DurUs    float64 `json:"dur_us"`
	KernelUs float64 `json:"kernel_us,omitempty"`
}

// tracedResult is what the traced pass measured.
type tracedResult struct {
	front, plain                   []float64 // ms per request
	serverSelf, pcSelf             []float64
	serve, serveSelf, gen, genSelf []float64
	register, parseUs, encodeUs    []float64
	prefillTokens                  int
	decodePositions                int64
	kernels                        *timedBackend
	mismatches, requests           int
	spans                          []span
}

// tracedPass replays inputs through the four mirrors (see above).
func tracedPass(w *workload, seed uint64, workdir string, warm, inputs []input) (*tracedResult, error) {
	front, _, err := newMirror(w, seed, workdir, "front", true, true)
	if err != nil {
		return nil, err
	}
	defer front.close()
	plain, _, err := newMirror(w, seed, workdir, "plain", false, true)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	var infer *mirror
	if w.HTTP {
		if infer, _, err = newMirror(w, seed, workdir, "infer", true, false); err != nil {
			return nil, err
		}
		defer infer.close()
	}
	engine, reg, err := newMirror(w, seed, workdir, "engine", true, false)
	if err != nil {
		return nil, err
	}
	defer engine.close()
	all := []*mirror{front, plain, engine}
	if infer != nil {
		all = append(all, infer)
	}

	tr := &tracedResult{kernels: engine.bk}
	for _, d := range reg {
		tr.register = append(tr.register, ms(d))
	}
	viaFront := func(mr *mirror, in input) (reply, error) {
		if mr.http != nil {
			return mr.viaHTTP(in)
		}
		return mr.viaInfer(in)
	}
	// Warm every mirror alike with the run's warm-up inputs, untimed.
	for _, in := range warm {
		for _, mr := range all {
			var err error
			switch {
			case in.Register != "":
				_, err = mr.client.RegisterSchema(in.Register)
			case mr == engine:
				_, _, err = mr.viaEngine(in)
			case mr == infer:
				_, err = mr.viaInfer(in)
			default:
				_, err = viaFront(mr, in)
			}
			if err != nil {
				return nil, fmt.Errorf("traced warm-up: %w", err)
			}
		}
	}
	// Kernel totals and counts cover the measured requests only.
	engine.bk.reset()

	tok := tokenizer.New(modelVocab)
	origin := time.Now()
	at := func(t time.Time) float64 { return float64(t.Sub(origin)) / float64(time.Microsecond) }
	add := func(req int, layer, parent string, t0 time.Time, d, kernel time.Duration) {
		tr.spans = append(tr.spans, span{Req: req, Layer: layer, Parent: parent,
			StartUs: at(t0), DurUs: float64(d) / 1e3, KernelUs: float64(kernel) / 1e3})
	}
	for i, in := range inputs {
		if in.Register != "" {
			for _, mr := range all {
				t0 := time.Now()
				if _, err := mr.client.RegisterSchema(in.Register); err != nil {
					return nil, err
				}
				if mr == engine {
					d := time.Since(t0)
					tr.register = append(tr.register, ms(d))
					add(i, "core.register", "", t0, d, 0)
				}
			}
			continue
		}
		tr.requests++
		t0 := time.Now()
		plainOut, err := viaFront(plain, in)
		if err != nil {
			return nil, err
		}
		dPlain := time.Since(t0)

		t0, k0 := time.Now(), front.busy()
		frontOut, err := viaFront(front, in)
		if err != nil {
			return nil, err
		}
		dFront := time.Since(t0)
		frontLayer := "promptcache.infer"
		if w.HTTP {
			frontLayer = "server.http"
		}
		add(i, frontLayer, "", t0, dFront, front.busy()-k0)

		dInfer := dFront
		inferOut := frontOut
		if infer != nil {
			t0, k0 = time.Now(), infer.busy()
			if inferOut, err = infer.viaInfer(in); err != nil {
				return nil, err
			}
			dInfer = time.Since(t0)
			add(i, "promptcache.infer", "server.http", t0, dInfer, infer.busy()-k0)
		}

		t0 = time.Now()
		engOut, sp, err := engine.viaEngine(in)
		if err != nil {
			return nil, err
		}
		add(i, "core.serve", "promptcache.infer", t0, sp.serve, sp.serveKernel)
		add(i, "core.generate", "promptcache.infer", t0.Add(sp.serve), sp.gen, sp.genKernel)

		// The layers below the engine: prompt parsing and encoding of
		// the prompt's free text, timed on their own.
		prompts := in.Prompts
		if prompts == nil {
			prompts = []string{in.Prompt}
		}
		var parse, encode time.Duration
		for _, p := range prompts {
			t0 = time.Now()
			parsed, err := pml.ParsePrompt(p)
			parse += time.Since(t0)
			if err != nil {
				return nil, err
			}
			var text []string
			for _, it := range parsed.Items {
				if pt, ok := it.(*pml.PromptText); ok {
					text = append(text, pt.Content)
				}
			}
			t0 = time.Now()
			tok.Encode(strings.Join(text, " "))
			encode += time.Since(t0)
		}

		tr.front = append(tr.front, ms(dFront))
		tr.plain = append(tr.plain, ms(dPlain))
		tr.serverSelf = append(tr.serverSelf, ms(dFront-dInfer))
		tr.pcSelf = append(tr.pcSelf, ms(dInfer-sp.serve-sp.gen))
		tr.serve = append(tr.serve, ms(sp.serve))
		tr.serveSelf = append(tr.serveSelf, ms(sp.serve-sp.serveKernel))
		tr.gen = append(tr.gen, ms(sp.gen))
		tr.genSelf = append(tr.genSelf, ms(sp.gen-sp.genKernel))
		tr.parseUs = append(tr.parseUs, float64(parse)/1e3)
		tr.encodeUs = append(tr.encodeUs, float64(encode)/1e3)
		tr.prefillTokens += sp.prefillTokens
		tr.decodePositions += sp.decodePositions

		// Tracing must not change a single token: the traced and
		// untraced front ends, Infer and the engine all agree.
		if !sameOutput(frontOut, plainOut) || !sameOutput(frontOut, inferOut) || !sameOutput(inferOut, engOut) {
			tr.mismatches++
			fmt.Fprintf(os.Stderr, "perfbench: traced request %d: outputs differ (front=plain %t, front=infer %t, infer=engine %t)\n",
				i, sameOutput(frontOut, plainOut), sameOutput(frontOut, inferOut), sameOutput(inferOut, engOut))
		}
	}
	return tr, nil
}

// sameOutput compares two replies on what both carry: texts always,
// ids when both have them.
func sameOutput(a, b reply) bool {
	if !slices.Equal(a.texts, b.texts) {
		return false
	}
	if a.ids == nil || b.ids == nil {
		return true
	}
	return slices.EqualFunc(a.ids, b.ids, slices.Equal[[]int])
}

// writeSpans writes the pass's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
