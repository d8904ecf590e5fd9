package main

import (
	"fmt"

	"repro/promptcache"
)

// perLayer fills the trace-1 metrics: generator health and counter
// deltas from the untraced load phase, spans and kernel totals from the
// traced pass.
func (b *bench) perLayer(lr *loadResult, tr *tracedResult) {
	w := b.w

	// loadgen: the generator's own health, all rungs and per rung.
	c := tally(lr.outs)
	b.set("loadgen.sent", "count", float64(c.Sent))
	b.set("loadgen.ok", "count", float64(c.OK))
	b.set("loadgen.shed", "count", float64(c.Shed))
	b.set("loadgen.failed", "count", float64(c.Failed))
	b.set("loadgen.abandoned", "count", float64(c.Abandoned))
	b.set("loadgen.failed_frac", "frac", float64(c.Failed+c.Shed+lr.mismatches)/float64(max(c.Sent, 1)))
	var late []float64
	for _, o := range lr.outs {
		if !o.register {
			late = append(late, ms(o.late()))
		}
	}
	b.set("loadgen.late_p99_ms", "ms", percentile(late, 99))
	if w.Rates != nil {
		b.set("loadgen.sustained_rps", "1/s", sustainedRate(w.Rates, lr.sustained))
	} else {
		b.set("loadgen.sustained_rps", "1/s", 0)
	}
	l := lr.latency(w)
	b.set("e2e.ttft_tail_ms", "ms", l.ttft.Tail)
	b.notes["e2e.ttft_tail_ms"] = fmt.Sprintf("n=%d p%.1f", l.ttft.N, l.ttft.TailPct)
	b.set("e2e.tpot_tail_ms", "ms", l.tpot.Tail)
	b.notes["e2e.tpot_tail_ms"] = fmt.Sprintf("n=%d p%.1f", l.tpot.N, l.tpot.TailPct)
	b.notes["loadgen.late_p99_ms"] = fmt.Sprintf("n=%d", len(late))
	for k := 0; k < maxRungs; k++ {
		var rc counts
		if k < len(lr.rungs) {
			rc = tally(lr.rungs[k])
		}
		p := fmt.Sprintf("loadgen.rung%d.", k)
		b.set(p+"sent", "count", float64(rc.Sent))
		b.set(p+"ok", "count", float64(rc.OK))
		b.set(p+"shed", "count", float64(rc.Shed))
		b.set(p+"failed", "count", float64(rc.Failed))
	}

	// Counter deltas over the measured phase.
	d := delta(lr.before, lr.after)
	b.set("admission.admitted", "count", float64(d.admitted))
	b.set("admission.shed", "count", float64(d.shed))
	b.set("admission.queue_depth_max", "count", float64(d.queueMax))
	b.set("core.modules_reused", "count", float64(d.after.ModulesReused-d.before.ModulesReused))
	b.set("core.modules_encoded", "count", float64(d.after.ModulesEncoded-d.before.ModulesEncoded))
	cached, total := 0, 0
	for _, o := range lr.outs {
		if o.status == statusOK && !o.register {
			cached += o.cached
			total += o.cached + o.fresh
		}
	}
	b.set("core.reuse_frac", "frac", float64(cached)/float64(max(total, 1)))
	b.notes["core.reuse_frac"] = fmt.Sprintf("prompt tokens=%d", total)
	b.set("sched.fused_steps", "count", float64(d.steps))
	b.set("sched.tokens_decoded", "count", float64(d.tokens))
	b.set("sched.lanes_per_step", "lanes/step", ratio(d.laneSteps, d.steps))
	b.set("spec.accepted_per_step", "tok/step", ratio(d.tokens, d.laneSteps))
	b.set("spec.accept_rate", "frac", ratio(d.accepted, d.proposed))
	t0, t1 := lr.before.Tiers, lr.after.Tiers
	reused := d.after.ModulesReused - d.before.ModulesReused
	promoted := t1.ModulesPromoted - t0.ModulesPromoted
	diskHits := t1.DiskHits - t0.DiskHits
	reencoded := d.after.ModulesReloaded - d.before.ModulesReloaded
	b.set("tier.evicted", "count", float64(d.after.ModulesEvicted-d.before.ModulesEvicted))
	b.set("tier.demoted", "count", float64(t1.ModulesDemoted-t0.ModulesDemoted))
	b.set("tier.promoted", "count", float64(promoted))
	b.set("tier.spilled", "count", float64(t1.ModulesSpilled-t0.ModulesSpilled))
	b.set("tier.disk_hits", "count", float64(diskHits))
	b.set("tier.reencoded", "count", float64(reencoded))
	b.set("tier.device_hit_frac", "frac", ratio(int64(max(reused-promoted-diskHits-reencoded, 0)), int64(reused)))
	b.notes["tier.device_hit_frac"] = fmt.Sprintf("module uses=%d", reused)
	b.set("mining.observed", "count", float64(d.observed))
	b.set("mining.promotions", "count", float64(d.promotions))
	b.set("mining.hit_tokens_frac", "frac", float64(d.hitTokens)/float64(max(total, 1)))

	// Spans from the traced pass.
	front := b.p50Of("trace.e2e_p50_ms", "ms", tr.front)
	plain := summarise(tr.plain)
	b.set("trace.overhead_frac", "frac", front.P50/plain.P50-1)
	self := b.p50Of("server.self_ms", "ms", tr.serverSelf)
	b.p50Of("promptcache.self_ms", "ms", tr.pcSelf)
	serve := b.p50Of("core.serve_ms", "ms", tr.serve)
	b.p50Of("core.serve.self_ms", "ms", tr.serveSelf)
	gen := b.p50Of("core.generate_ms", "ms", tr.gen)
	b.p50Of("core.generate.self_ms", "ms", tr.genSelf)
	b.p50Of("core.register_ms", "ms", tr.register)
	b.p50Of("pml.parse_us", "us", tr.parseUs)
	b.p50Of("tokenizer.encode_us", "us", tr.encodeUs)
	b.set("trace.span_sum_frac", "frac", (self.P50+serve.P50+gen.P50)/front.P50)
	b.notes["trace.span_sum_frac"] = "(server.self_ms + core.serve_ms + core.generate_ms) / trace.e2e_p50_ms"
	b.set("model.prefill_tokens", "count", float64(tr.prefillTokens))
	b.set("model.decode_positions", "count", float64(tr.decodePositions))
	for k, name := range kernelNames {
		s := &tr.kernels.k[k]
		p := "tensor." + name + "."
		b.set(p+"calls", "count", float64(s.calls.Load()))
		b.set(p+"ms", "ms", float64(s.ns.Load())/1e6)
		b.set(p+"gflop", "GFLOP", float64(s.flops.Load())/1e9)
		b.set(p+"mb", "MB", float64(s.bytes.Load())/1e6)
	}
}

// maxRungs is the longest rate ladder any workload runs; per-rung
// metrics exist for each, zero where a workload has fewer rungs.
const maxRungs = 3

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// snapDelta is the difference of two stats snapshots, with the optional
// blocks flattened (absent blocks count as zero).
type snapDelta struct {
	before, after                                promptcache.Snapshot
	admitted, shed                               int64
	queueMax                                     int
	steps, tokens, laneSteps, proposed, accepted int64
	observed                                     uint64
	promotions, hitTokens                        int
}

func delta(a, z promptcache.Snapshot) snapDelta {
	d := snapDelta{before: a, after: z}
	if a.Admission != nil && z.Admission != nil {
		d.admitted = z.Admission.Interactive.Admitted + z.Admission.Batch.Admitted -
			a.Admission.Interactive.Admitted - a.Admission.Batch.Admitted
		d.shed = z.Admission.Interactive.Shed + z.Admission.Batch.Shed -
			a.Admission.Interactive.Shed - a.Admission.Batch.Shed
		d.queueMax = max(a.Admission.QueueDepth, z.Admission.QueueDepth)
	}
	if a.Scheduler != nil && z.Scheduler != nil {
		d.steps = z.Scheduler.FusedSteps - a.Scheduler.FusedSteps
		d.tokens = z.Scheduler.TokensDecoded - a.Scheduler.TokensDecoded
		for i, n := range z.Scheduler.BatchHist {
			var m int64
			if i < len(a.Scheduler.BatchHist) {
				m = a.Scheduler.BatchHist[i]
			}
			d.laneSteps += (n - m) * int64(i+1)
		}
	}
	if a.Speculation != nil && z.Speculation != nil {
		d.proposed = z.Speculation.DraftProposed - a.Speculation.DraftProposed
		d.accepted = z.Speculation.DraftAccepted - a.Speculation.DraftAccepted
	}
	if a.Mining != nil && z.Mining != nil {
		d.observed = z.Mining.Observed - a.Mining.Observed
		d.promotions = z.Mining.Promotions - a.Mining.Promotions
		d.hitTokens = z.Mining.HitTokensSaved - a.Mining.HitTokensSaved
	}
	return d
}
