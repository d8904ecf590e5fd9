package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// The model every workload serves: pcserve's defaults (llama
// architecture, weight seed 1, WordBase+8192 vocabulary), so in-process
// clients and the reference compute exactly what the server computes.
const (
	modelVocab = tokenizer.WordBase + 8192
	modelSeed  = 1
)

func newModel() (*model.Model, error) { return model.New(model.LlamaStyle(modelVocab, modelSeed)) }

// vocabTable names every word-token id before any text is encoded. A
// tokenizer renders an id by the first word it saw hash to it, or by a
// pseudo-word until then, so without a full table the same generated id
// reads differently before and after some later prompt happens to
// contain a colliding word. Loading this table into the server, the
// in-process clients and the reference first makes every rendering
// fixed, so replies compare exactly across engines and over time.
func vocabTable() []byte {
	t := make(map[int]string, modelVocab-tokenizer.WordBase)
	for id := tokenizer.WordBase; id < modelVocab; id++ {
		t[id] = "t" + strconv.Itoa(id)
	}
	b, _ := json.Marshal(t)
	return b
}

// newClient builds an in-process client with the fixed vocabulary.
func newClient(m *model.Model, opts ...promptcache.Option) (*promptcache.Client, error) {
	c := promptcache.New(m, opts...)
	if err := c.Engine().Tokenizer().LoadVocab(bytes.NewReader(vocabTable())); err != nil {
		return nil, err
	}
	return c, nil
}

// engineOptions is the engine configuration of a workload's in-process
// client. For HTTP workloads it mirrors pcserveFlags; tier-churn bounds
// the device and host tiers to churnResident document modules each and
// spills to an fp32 disk tier in dir.
func engineOptions(w *workload, m *model.Model, dir string) []promptcache.Option {
	if w.tiers {
		modBytes := int64(churnDocWords) * int64(m.Cfg.NLayers) * 2 * int64(m.Cfg.KVDim()) * 4
		return []promptcache.Option{
			promptcache.WithDecodeScheduler(8),
			promptcache.WithDeviceCapacity(churnResident * modBytes),
			promptcache.WithHostTier(churnResident * modBytes),
			promptcache.WithDiskTier(dir, promptcache.CodecFP32),
		}
	}
	return []promptcache.Option{
		promptcache.WithDecodeScheduler(8),
		promptcache.WithSpeculation(promptcache.DraftOpts{}),
		promptcache.WithModuleMining(promptcache.MiningOpts{}),
		promptcache.WithAdmission(promptcache.AdmissionConfig{MaxConcurrent: 4}),
	}
}

// target is the system under test in the load phase: a pcserve process
// for HTTP workloads, an in-process client otherwise.
type target struct {
	w      *workload
	srv    *pcserveProc
	hc     *http.Client
	client *promptcache.Client
	dir    string // the in-process disk tier, removed on close
}

// setupTarget brings a target up to serving: starts pcserve (or builds
// the client) and registers the workload's schemas, module encoding
// included. The returned duration is the set-up time.
func setupTarget(w *workload, seed uint64, bin, workdir string, k int) (*target, time.Duration, error) {
	t0 := time.Now()
	t := &target{w: w}
	if w.HTTP {
		srv, err := startServer(bin)
		if err != nil {
			return nil, 0, err
		}
		t.srv = srv
		conns := 1
		if w.Rates != nil {
			conns = maxConns()
		}
		t.hc = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}}
		// The vocabulary upload is the benchmark's own step, not set-up.
		tv := time.Now()
		if _, err := postJSON(context.Background(), t.hc, srv.base+"/vocab", json.RawMessage(vocabTable()), nil); err != nil {
			t.close()
			return nil, 0, err
		}
		t0 = t0.Add(time.Since(tv))
		for _, s := range w.schemas(seed) {
			if err := srv.register(t.hc, s); err != nil {
				t.close()
				return nil, 0, err
			}
		}
		return t, time.Since(t0), nil
	}
	m, err := newModel()
	if err != nil {
		return nil, 0, err
	}
	t.dir = filepath.Join(workdir, "tiers-"+strconv.Itoa(os.Getpid())+"-"+strconv.Itoa(k))
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return nil, 0, err
	}
	if t.client, err = newClient(m, engineOptions(w, m, t.dir)...); err != nil {
		return nil, 0, err
	}
	for _, s := range w.schemas(seed) {
		if _, err := t.client.RegisterSchema(s); err != nil {
			t.close()
			return nil, 0, err
		}
	}
	return t, time.Since(t0), nil
}

func (t *target) close() {
	if t.srv != nil {
		t.srv.stop()
		t.hc.CloseIdleConnections()
	}
	if t.dir != "" {
		_ = os.RemoveAll(t.dir)
	}
}

// send performs one operation against the target.
func (t *target) send(in input, due time.Time) outcome {
	ctx := context.Background()
	switch {
	case in.Register != "":
		o := outcome{due: due, start: time.Now(), register: true, status: statusOK}
		if _, err := t.client.RegisterSchema(in.Register); err != nil {
			return o.fail(err)
		}
		o.e2e = time.Since(due)
		return o
	case t.srv != nil && in.Prompts != nil:
		return doBatch(ctx, t.hc, t.srv.base, in, due)
	case t.srv != nil:
		return doStream(ctx, t.hc, t.srv.base, in, due)
	default:
		return doInfer(ctx, t.client, in, due)
	}
}

// doInfer serves one request in process, timing streamed tokens.
func doInfer(ctx context.Context, c *promptcache.Client, in input, due time.Time) outcome {
	o := outcome{due: due, start: time.Now()}
	var first, last time.Time
	n := 0
	resp, err := c.Infer(ctx, promptcache.Request{
		Prompt: in.Prompt,
		Gen:    promptcache.GenConfig{MaxTokens: in.MaxTokens},
		Stream: func(string) bool {
			last = time.Now()
			if n == 0 {
				first = last
			}
			n++
			return true
		},
	})
	end := time.Now()
	if err != nil {
		return o.fail(err)
	}
	o.status = statusOK
	o.ids = resp.Tokens
	o.tokens = n
	o.cached, o.fresh = resp.CachedTokens, resp.NewTokens
	o.e2e = end.Sub(due)
	// A reply whose first sampled token is the stop token streams
	// nothing; its first token was decided when the reply ended.
	o.ttft = o.e2e
	if n > 0 {
		o.ttft = first.Sub(due)
	}
	if n > 1 {
		o.tpot = last.Sub(first) / time.Duration(n-1)
	}
	return o
}

func (t *target) snapshot() (promptcache.Snapshot, error) {
	if t.srv != nil {
		return t.srv.snapshot(t.hc)
	}
	return t.client.Snapshot(), nil
}

// rssMB is the peak resident set of the serving process: pcserve, or
// this process for in-process workloads.
func (t *target) rssMB() (float64, error) {
	if t.srv != nil {
		return vmHWM(t.srv.cmd.Process.Pid)
	}
	return vmHWM(os.Getpid())
}
