package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/promptcache"
)

// pcserveFlags is the one serving configuration every HTTP workload
// runs: continuous batching 8 wide, speculation, mining and admission.
var pcserveFlags = []string{"-decode-batch", "8", "-speculate", "-mine", "-admit", "4"}

// pcserveProc is a running pcserve process.
type pcserveProc struct {
	cmd  *exec.Cmd
	base string
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches pcserve and returns once /healthz answers.
func startServer(bin string) (*pcserveProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, pcserveFlags...)...)
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &pcserveProc{cmd: cmd, base: "http://" + addr}
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("pcserve did not become healthy within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit.
func (s *pcserveProc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// postJSON sends body as JSON and decodes a 200 reply into out.
func postJSON(ctx context.Context, hc *http.Client, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (s *pcserveProc) register(hc *http.Client, pml string) error {
	_, err := postJSON(context.Background(), hc, s.base+"/schemas", map[string]string{"pml": pml}, nil)
	return err
}

func (s *pcserveProc) snapshot(hc *http.Client) (promptcache.Snapshot, error) {
	var snap promptcache.Snapshot
	err := getJSON(hc, s.base+"/v1/stats", &snap)
	return snap, err
}

// genBody is the request body shape /v1/stream and /v1/complete_batch
// share: a prompt or prompts plus the embedded generation options.
type genBody struct {
	Prompt      string                  `json:"prompt,omitempty"`
	Prompts     []string                `json:"prompts,omitempty"`
	MaxTokens   int                     `json:"max_tokens"`
	Speculation *promptcache.SpecConfig `json:"speculation,omitempty"`
}

func bodyFor(in input) genBody {
	b := genBody{Prompt: in.Prompt, Prompts: in.Prompts, MaxTokens: in.MaxTokens}
	if in.Speculate {
		on := true
		b.Speculation = &promptcache.SpecConfig{Enabled: &on}
	}
	return b
}

// sseEvent is one decoded server-sent event of /v1/stream.
type sseEvent struct {
	Token  *string `json:"token"`
	Done   bool    `json:"done"`
	Error  string  `json:"error"`
	Cached int     `json:"cached_tokens"`
	New    int     `json:"new_tokens"`
}

// readSSE decodes "data: {...}" events from r, calling on for each with
// the time it was read.
func readSSE(r io.Reader, on func(ev sseEvent, at time.Time)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev sseEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("bad SSE event %q: %w", line, err)
		}
		on(ev, at)
	}
	return sc.Err()
}

// doStream sends one /v1/stream request and times its token events
// against due.
func doStream(ctx context.Context, hc *http.Client, base string, in input, due time.Time) outcome {
	o := outcome{due: due, start: time.Now()}
	b, _ := json.Marshal(bodyFor(in))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/stream", bytes.NewReader(b))
	if err != nil {
		return o.fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return o.fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		_, _ = io.Copy(io.Discard, resp.Body)
		o.status = statusShed
		return o
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return o.fail(fmt.Errorf("stream: %d %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}
	return o.consumeSSE(resp.Body)
}

// consumeSSE fills o from an SSE body: token texts, first-token time,
// per-request TPOT, and the done event's reuse counts.
func (o outcome) consumeSSE(body io.Reader) outcome {
	var first, last time.Time
	done := false
	var evErr string
	err := readSSE(body, func(ev sseEvent, at time.Time) {
		switch {
		case ev.Token != nil:
			if first.IsZero() {
				first = at
			}
			last = at
			o.texts = append(o.texts, *ev.Token)
		case ev.Done:
			done = true
			o.cached, o.fresh = ev.Cached, ev.New
		case ev.Error != "":
			evErr = ev.Error
		}
	})
	end := time.Now()
	switch {
	case err != nil:
		return o.fail(err)
	case evErr != "":
		return o.fail(errors.New(evErr))
	case !done:
		return o.fail(errors.New("stream ended without a done event"))
	}
	o.status = statusOK
	o.tokens = len(o.texts)
	o.e2e = end.Sub(o.due)
	// A reply whose first sampled token is the stop token streams no
	// token event; its first token was decided when the reply ended.
	o.ttft = o.e2e
	if !first.IsZero() {
		o.ttft = first.Sub(o.due)
	}
	if o.tokens > 1 {
		o.tpot = last.Sub(first) / time.Duration(o.tokens-1)
	}
	return o
}

type batchReply struct {
	Results []struct {
		Text         string `json:"text"`
		CachedTokens int    `json:"cached_tokens"`
		NewTokens    int    `json:"new_tokens"`
	} `json:"results"`
}

// doBatch sends one /v1/complete_batch call. The endpoint does not
// stream, so its first token is visible only with the whole reply:
// TTFT is the time to the reply and TPOT the call time per output token
// of one prompt.
func doBatch(ctx context.Context, hc *http.Client, base string, in input, due time.Time) outcome {
	o := outcome{due: due, start: time.Now()}
	var reply batchReply
	code, err := postJSON(ctx, hc, base+"/v1/complete_batch", bodyFor(in), &reply)
	if code == http.StatusTooManyRequests {
		o.status = statusShed
		return o
	}
	if err != nil {
		return o.fail(err)
	}
	if len(reply.Results) != len(in.Prompts) {
		return o.fail(fmt.Errorf("batch: %d results for %d prompts", len(reply.Results), len(in.Prompts)))
	}
	end := time.Now()
	for _, r := range reply.Results {
		o.texts = append(o.texts, r.Text)
		o.cached += r.CachedTokens
		o.fresh += r.NewTokens
	}
	o.status = statusOK
	o.tokens = len(in.Prompts) * in.MaxTokens
	o.ttft = end.Sub(due)
	o.e2e = o.ttft
	o.tpot = o.e2e / time.Duration(in.MaxTokens)
	return o
}
