package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/serve"
)

// The per-layer half of the traced run. Its numbers come from three
// places, all outside the program: the benchmark's own spans around the
// calls it makes, the spans and counters every tenant's always-on obs
// bundle records (read through serve.EachTenantObs), and timed calls into
// the layers' public functions on a tenant's current model.
//
// A layer the workload's traffic does not reach (HTTP on events, event
// delivery on the REST workloads, the EU on PATCH-only mixes) is measured
// on a probe tenant instead: a cml tenant created after the traced phase
// and driven with a fixed mix of REST ops and one event burst. Every
// per-layer metric therefore has a measured value on every workload.

// tenantSpans are the tenant spans the traced run reports, one per
// cross-layer hop.
var tenantSpans = []string{
	obs.SpanUISubmit, obs.SpanSynthSubmit, obs.SpanSynthEvent,
	obs.SpanCtlScript, obs.SpanCtlEvent, obs.SpanBrokerStep, obs.SpanBrokerEvent,
	obs.SpanEURun, obs.SpanResourceExecute,
}

// apiRoutes are the REST routes the generators call.
var apiRoutes = []string{"get_object", "patch_object", "put_object", "delete_object", "patch_object_422"}

// counters are the tenant and server counters a phase is bracketed by.
type counters struct {
	spans, commands, calls         int64
	deliverN                       int64
	deliverSum                     time.Duration
	rejected, dropped, deadLetters int64
	queueMax                       int64
	rehydrations                   int64
	cacheHits, cacheMisses         int64
}

func readCounters(srv *serve.Server) counters {
	var c counters
	srv.EachTenantObs(func(_ string, o *obs.Obs, _ bool) {
		for _, n := range o.TracerOf().Counts() {
			c.spans += n
		}
		m := o.MetricsOf()
		c.commands += m.CounterValue(obs.MControllerCommands)
		c.calls += m.CounterValue(obs.MBrokerCalls)
		h := m.Histogram(obs.HPumpDeliver)
		c.deliverN += h.Count()
		c.deliverSum += h.Sum()
		c.rejected += m.CounterValue(obs.MEventsRejected)
		c.dropped += m.CounterValue(obs.MEventsDropped)
		c.deadLetters += m.CounterValue(obs.MEventsDeadLettered)
		c.queueMax = max(c.queueMax, m.Gauge(obs.MQueueDepth).Max())
	})
	sm := srv.Obs().MetricsOf()
	c.rehydrations = sm.CounterValue(obs.MServeRehydrations)
	c.cacheHits = sm.CounterValue(obs.MValidateCacheHits)
	c.cacheMisses = sm.CounterValue(obs.MValidateCacheMisses)
	return c
}

// layerMetrics computes the per-layer metrics of the traced phase ph,
// which began with the counters in before; the probe ops it runs are
// recorded in probe.
func layerMetrics(w *world, before counters, ph, probe *phase) (map[string]metric, error) {
	after := readCounters(w.srv)
	ops := float64(max(ph.attempted, 1))
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	traffic := map[string]*spanStat{}
	w.srv.EachTenantObs(func(_ string, o *obs.Obs, _ bool) {
		addSpanStats(traffic, tenantIntervals(o.TracerOf().Recent(), ph.start))
	})
	bench := map[string]*spanStat{}
	addSpanStats(bench, ph.tr.intervals(ph.start))

	// Probe tenant: the layers the traffic did not reach.
	probeStart := time.Now()
	pt, probeObs, err := runProbe(w, probe)
	if err != nil {
		return nil, err
	}
	probeSpans := map[string]*spanStat{}
	addSpanStats(probeSpans, tenantIntervals(probeObs.TracerOf().Recent(), probeStart))
	probeBench := map[string]*spanStat{}
	addSpanStats(probeBench, probe.tr.intervals(probeStart))
	pick := func(primary, fallback map[string]*spanStat, name string) spanStat {
		if s := primary[name]; s != nil && s.count > 0 {
			return *s
		}
		if s := fallback[name]; s != nil {
			return *s
		}
		return spanStat{}
	}

	for _, r := range apiRoutes {
		put("api.request_ms."+r, pick(bench, probeBench, "api."+r).meanMs(), "ms")
	}
	patchStats, submitStats := bench, traffic
	if s := bench["api.patch_object"]; s == nil || s.count == 0 {
		patchStats, submitStats = probeBench, probeSpans
	}
	put("api.self_ms", pick(patchStats, nil, "api.patch_object").meanMs()-pick(submitStats, nil, obs.SpanUISubmit).meanMs(), "ms")
	for _, name := range tenantSpans {
		s := pick(traffic, probeSpans, name)
		put(name+"_ms", s.meanMs(), "ms")
		put(name+"_self_ms", s.selfMs(), "ms")
	}
	put("serve.post_us", 1000*pick(bench, probeBench, "serve.post").meanMs(), "us")
	put("serve.rehydrations_per_op", float64(after.rehydrations-before.rehydrations)/ops, "count")
	put("controller.commands_per_op", float64(after.commands-before.commands)/ops, "count")
	put("broker.calls_per_op", float64(after.calls-before.calls)/ops, "count")
	put("obs.spans_per_op", float64(after.spans-before.spans)/ops, "count")
	if n := after.deliverN - before.deliverN; n > 0 {
		put("runtime.deliver_ms", ms(after.deliverSum-before.deliverSum)/float64(n), "ms")
	} else {
		put("runtime.deliver_ms", ms(probeObs.MetricsOf().Histogram(obs.HPumpDeliver).Mean()), "ms")
	}
	put("runtime.queue_depth_max", float64(after.queueMax), "count")
	put("runtime.rejected", float64(after.rejected-before.rejected), "count")
	put("runtime.dropped", float64(after.dropped-before.dropped), "count")
	put("runtime.deadlettered", float64(after.deadLetters-before.deadLetters), "count")
	if n := after.cacheHits + after.cacheMisses; n > 0 {
		put("metamodel.cache_hit_ratio", float64(after.cacheHits)/float64(n), "ratio")
	} else {
		put("metamodel.cache_hit_ratio", 0, "ratio")
	}
	pd := ph.proc
	if pd.cpu > 0 {
		put("proc.gc_cpu_frac", pd.gcCPU/pd.cpu.Seconds(), "ratio")
	} else {
		put("proc.gc_cpu_frac", 0, "ratio")
	}
	put("proc.alloc_kb_per_op", float64(pd.allocBytes)/1024/ops, "KiB")
	put("proc.gc_per_kop", float64(pd.gcs)*1000/ops, "count")
	put("proc.steal_frac", pd.stealFrac, "ratio")

	timed, err := timeLayers(w, w.tenants[0], pt, probe.tr)
	if err != nil {
		return nil, err
	}
	for k, v := range timed {
		out[k] = v
	}
	return out, nil
}

// runProbe creates the probe tenant and drives it with a fixed mix: 40
// REST ops (PATCH, GET, PUT/DELETE of a stream, which reaches the EU, and
// planted invalid writes) and one event burst.
func runProbe(w *world, probe *phase) (*shadow, *obs.Obs, error) {
	r := rand.New(rand.NewSource(1))
	rec := cmlRecipe(0.5)
	if err := w.provision("probe", rec, rec.seed(r, 16)); err != nil {
		return nil, nil, fmt.Errorf("probe: %w", err)
	}
	s := w.tenants[len(w.tenants)-1]
	if w.front == nil {
		f, err := startHTTP(w.srv)
		if err != nil {
			return nil, nil, err
		}
		w.front = f
	}
	rd := &restGen{front: w.front, r: r, mix: deck(20, 10, 6, 4), choose: uniform([]*shadow{s})}
	for i := 0; i < 40; i++ {
		rd.step(probe)
	}
	ed := &eventGen{srv: w.srv, tenants: []*shadow{s}, r: r, sent: w.sent}
	ed.burst(probe)
	var o *obs.Obs
	w.srv.EachTenantObs(func(name string, to *obs.Obs, _ bool) {
		if name == s.tenant {
			o = to
		}
	})
	return s, o, nil
}

// timeLayers times calls into the layers' public functions: the
// metamodel operations on tenant t's current model, the serve and runtime
// snapshot paths, and the tracer. Each loop runs a fixed count and reports
// the mean.
func timeLayers(w *world, t, probe *shadow, tr *tracer) (map[string]metric, error) {
	out := map[string]metric{}
	timeIt := func(name, unit string, n int, f func(i int) error) error {
		sp := tr.start("layer." + name)
		defer tr.end(sp)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		per := time.Since(t0) / time.Duration(n)
		if unit == "us" {
			out[name] = metric{float64(per) / float64(time.Microsecond), unit}
		} else {
			out[name] = metric{ms(per), unit}
		}
		return nil
	}
	m, mm, err := w.srv.Model(t.tenant)
	if err != nil {
		return nil, err
	}
	// Consecutive versions: the current model with one generated PATCH
	// applied, a different one per iteration.
	const n = 50
	r := rand.New(rand.NewSource(2))
	next := make([]*metamodel.Model, n)
	for i := range next {
		id, attrs := t.rec.patch(r, t)
		next[i] = m.Clone()
		for k, v := range attrs {
			next[i].Get(id).SetAttr(k, v)
		}
	}
	work := m.Clone()
	cache := metamodel.NewValidationCache(n)
	var data []byte
	var snap []byte
	steps := []struct {
		name, unit string
		n          int
		f          func(i int) error
	}{
		{"metamodel.clone_ms", "ms", n, func(int) error { work = m.Clone(); return nil }},
		{"metamodel.validate_ms", "ms", n, func(int) error { return work.Validate(mm) }},
		{"metamodel.cache_validate_ms", "ms", n, func(i int) error { _, err := cache.Validate(mm, next[i]); return err }},
		{"metamodel.diff_ms", "ms", n, func(i int) error { metamodel.DiffWithContainment(m, next[i], mm); return nil }},
		{"metamodel.marshal_ms", "ms", n, func(int) (err error) { data, err = metamodel.MarshalModel(m); return err }},
		{"metamodel.unmarshal_ms", "ms", n, func(int) error { _, err := metamodel.UnmarshalModel(data); return err }},
		{"serve.model_ms", "ms", n, func(int) error { _, _, err := w.srv.Model(t.tenant); return err }},
		{"runtime.checkpoint_ms", "ms", 10, func(int) (err error) { snap, err = w.srv.Snapshot(t.tenant); return err }},
		{"domains.restore_ms", "ms", 10, func(int) error {
			inst, err := domains.Restore(t.rec.bundle, snap, domains.Config{})
			if err == nil {
				inst.Close()
			}
			return err
		}},
		{"obs.span_us", "us", 20000, func() func(int) error {
			ot := obs.NewTracer()
			return func(int) error { ot.Start("probe").End(); return nil }
		}()},
	}
	for _, s := range steps {
		if err := timeIt(s.name, s.unit, s.n, s.f); err != nil {
			return nil, err
		}
	}
	out["runtime.snapshot_kb"] = metric{float64(len(snap)) / 1024, "KiB"}

	// Residency: park the probe tenant and touch it back.
	var evict, rehydrate time.Duration
	const cycles = 5
	for i := 0; i < cycles; i++ {
		sp := tr.start("layer.serve.evict")
		t0 := time.Now()
		if err := w.srv.Evict(probe.tenant); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.end(sp)
		sp = tr.start("layer.serve.rehydrate")
		if _, _, err := w.srv.Model(probe.tenant); err != nil {
			return nil, err
		}
		rehydrate += time.Since(t1)
		evict += t1.Sub(t0)
		tr.end(sp)
	}
	out["serve.evict_ms"] = metric{ms(evict / cycles), "ms"}
	out["serve.rehydrate_ms"] = metric{ms(rehydrate / cycles), "ms"}
	return out, nil
}
