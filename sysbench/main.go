// Command sysbench is the repository's system benchmark. It runs one of
// four seeded, closed-loop workloads in-process against a real
// serve.Server — the REST workloads through api.Server on a loopback
// listener — checks every output for correctness, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, as the JSON
// object on its last line. README.md explains the workloads and metrics.
//
//	go run . -workload rest-small -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	_ "github.com/mddsm/mddsm/internal/domains/all"
	"github.com/mddsm/mddsm/internal/serve"
)

// workload is one traffic mix. build performs one complete set-up from a
// fresh server to the state the first timed op sees: provisioning,
// seeding and warm-up. It is a fixed amount of seeded work, repeated
// setups times per run so setup_s is a median.
type workload struct {
	name   string
	setups int
	build  func(seed int64) (*world, error)
}

var workloads = []workload{
	{"rest-small", 5, buildRestSmall},
	{"rest-large", 3, buildRestLarge},
	{"events", 5, buildEvents},
	{"churn", 5, buildChurn},
}

// world is one set-up system and the generator driving it.
type world struct {
	srv     *serve.Server
	front   *httpFront // nil for events
	tenants []*shadow
	rest    *restGen
	events  *eventGen
	// sent counts the events posted to each tenant.
	sent map[string]int64
}

func (w *world) close() {
	if w.front != nil {
		w.front.close()
	}
	w.srv.Close()
}

// provision creates a tenant and seeds it with docs.
func (w *world) provision(name string, rec *recipe, docs []objectDoc) error {
	if err := w.srv.Create(name, rec.bundle); err != nil {
		return err
	}
	if _, mm, err := w.srv.Model(name); err != nil || mm.Name != rec.model {
		return fmt.Errorf("tenant %s does not serve model %s: %v", name, rec.model, err)
	}
	s := newShadow(name, rec, docs)
	if _, err := w.srv.SubmitModel(name, s.toModel()); err != nil {
		return fmt.Errorf("seed %s: %w", name, err)
	}
	w.tenants = append(w.tenants, s)
	return nil
}

// warm runs n ops outside any measured phase; a failure aborts set-up.
func (w *world) warm(n int) error {
	ph := &phase{}
	for i := 0; i < n && ph.failed == 0; i++ {
		if w.rest != nil {
			w.rest.step(ph)
		} else {
			w.events.burst(ph)
		}
	}
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %s", ph.failures[0])
	}
	return nil
}

func newREST(seed int64, cfg serve.Config) (*world, *rand.Rand, error) {
	srv := serve.NewServer(cfg)
	front, err := startHTTP(srv)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return &world{srv: srv, front: front, sent: map[string]int64{}}, rand.New(rand.NewSource(seed)), nil
}

func uniform(tenants []*shadow) func(*rand.Rand, int) *shadow {
	return func(r *rand.Rand, _ int) *shadow { return tenants[r.Intn(len(tenants))] }
}

// buildRestSmall: 16 tenants, four per built-in bundle, each seeded with
// 10 to 20 objects; the per-bundle sizes are a fixed multiset in seeded
// order, so every seed seeds the same number of objects. 800 warm-up ops.
func buildRestSmall(seed int64) (*world, error) {
	w, r, err := newREST(seed, serve.Config{})
	if err != nil {
		return nil, err
	}
	recipes := []*recipe{cmlRecipe(0.2), mgridRecipe(), smartspaceRecipe(), csenseRecipe()}
	sizes := make([][]int, len(recipes))
	for i := range sizes {
		sizes[i] = []int{10, 13, 17, 20}
		r.Shuffle(4, func(a, b int) { sizes[i][a], sizes[i][b] = sizes[i][b], sizes[i][a] })
	}
	for i := 0; i < 16; i++ {
		rec := recipes[i%4]
		if err := w.provision(fmt.Sprintf("t%02d", i), rec, rec.seed(r, sizes[i%4][i/4])); err != nil {
			w.close()
			return nil, err
		}
	}
	w.rest = &restGen{front: w.front, r: r, mix: deck(72, 18, 5, 5), choose: uniform(w.tenants)}
	if err := w.warm(800); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// buildRestLarge: one cml tenant holding 300 objects (40 persons, 20
// sessions, 60 streams, 180 attachments), then 300 PATCHes, distinct
// commits that fill the server's 256-entry validation cache before
// timing. The timed mix is read-dominant: a PATCH's latency has two modes
// (with and without a garbage collection running) whose weights follow
// the host's speed, so a PATCH-dominant mix put the median between them
// (README.md, "Why the figures repeat").
func buildRestLarge(seed int64) (*world, error) {
	w, r, err := newREST(seed, serve.Config{})
	if err != nil {
		return nil, err
	}
	rec := cmlRecipe(0.5)
	if err := w.provision("big", rec, cmlLayout(r, 40, 20, 3, 180)); err != nil {
		w.close()
		return nil, err
	}
	w.rest = &restGen{front: w.front, r: r, mix: deck(100, 0, 0, 0), choose: uniform(w.tenants)}
	if err := w.warm(300); err != nil {
		w.close()
		return nil, err
	}
	w.rest.mix, w.rest.pos = deck(15, 85, 0, 0), 0
	return w, nil
}

// buildChurn: 24 cml tenants of 20 objects behind 8 residency slots; the
// PATCHes visit a seeded permutation of the tenants cyclically, so under
// LRU every request lands on a parked tenant. Ten warm-up cycles. The
// PATCHes change Person.role: rehydration rebuilds a tenant's simulated
// comm service empty, so a Stream change after a park/rehydrate cycle is
// refused by the adapter (README.md, "Known limits").
func buildChurn(seed int64) (*world, error) {
	w, r, err := newREST(seed, serve.Config{MaxResident: 8})
	if err != nil {
		return nil, err
	}
	rec := cmlRecipe(1)
	for i := 0; i < 24; i++ {
		if err := w.provision(fmt.Sprintf("c%02d", i), rec, rec.seed(r, 20)); err != nil {
			w.close()
			return nil, err
		}
	}
	perm := r.Perm(len(w.tenants))
	tenants := w.tenants
	w.rest = &restGen{front: w.front, r: r, mix: deck(100, 0, 0, 0),
		choose: func(_ *rand.Rand, i int) *shadow { return tenants[perm[i%len(perm)]] }}
	if err := w.warm(10 * len(w.tenants)); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// buildEvents: 8 tenants, two per built-in bundle, each seeded with 12
// objects (the streams and devices the acted-on events name), then six
// warm-up bursts.
func buildEvents(seed int64) (*world, error) {
	r := rand.New(rand.NewSource(seed))
	w := &world{srv: serve.NewServer(serve.Config{}), sent: map[string]int64{}}
	recipes := []*recipe{cmlRecipe(0), mgridRecipe(), smartspaceRecipe(), csenseRecipe()}
	for i := 0; i < 8; i++ {
		rec := recipes[i%4]
		if err := w.provision(fmt.Sprintf("e%02d", i), rec, rec.seed(r, 12)); err != nil {
			w.close()
			return nil, err
		}
	}
	w.events = &eventGen{srv: w.srv, tenants: w.tenants, r: r, sent: w.sent}
	if err := w.warm(6); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// phase is one measured stretch of closed-loop traffic.
type phase struct {
	tr        *tracer
	lat       []time.Duration // per op
	bursts    []time.Duration
	attempted int
	failed    int
	failures  []string
	start     time.Time
	proc      procDelta
	heap      float64
}

func (ph *phase) record(d time.Duration) {
	ph.lat = append(ph.lat, d)
	ph.attempted++
}

func (ph *phase) fail(msg string) {
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, msg)
	}
}

// run drives the world for d, then reads the process counters and the
// live heap.
func (w *world) run(ph *phase, d time.Duration) {
	before := sampleProc()
	ph.start = before.wall
	until := ph.start.Add(d)
	if w.rest != nil {
		bt := time.Now()
		for n := 1; time.Now().Before(until); n++ {
			w.rest.step(ph)
			if n%restBurst == 0 {
				now := time.Now()
				ph.bursts = append(ph.bursts, now.Sub(bt))
				bt = now
			}
		}
	} else {
		for time.Now().Before(until) {
			w.events.burst(ph)
		}
	}
	ph.proc = before.to(sampleProc())
	ph.heap = heapMiB()
}

// check runs the end-of-run correctness gate.
func (w *world) check() []string {
	var bad []string
	if w.front != nil {
		bad = append(bad, checkModels(w.front, w.tenants)...)
	}
	return append(bad, checkAccounting(w.srv, w.tenants, w.sent)...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return ms(sorted[min(max(i, 0), len(sorted)-1)])
}

func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// endToEnd computes the user-visible metrics of one phase.
func endToEnd(setup float64, ph *phase) map[string]metric {
	lat, bursts := sortedCopy(ph.lat), sortedCopy(ph.bursts)
	ops := float64(max(ph.attempted, 1))
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"ops_per_s":     {float64(ph.attempted) / ph.proc.wall.Seconds(), "1/s"},
		"op_p50_ms":     {percentile(lat, 0.50), "ms"},
		"op_p95_ms":     {percentile(lat, 0.95), "ms"},
		"burst_p50_ms":  {percentile(bursts, 0.50), "ms"},
		"burst_p95_ms":  {percentile(bursts, 0.95), "ms"},
		"cpu_ms_per_op": {ms(ph.proc.cpu) / ops, "ms"},
		"heap_mb":       {ph.heap, "MiB"},
	}
}

var e2eOrder = []string{"setup_s", "ops_per_s", "op_p50_ms", "op_p95_ms", "burst_p50_ms", "burst_p95_ms", "cpu_ms_per_op", "heap_mb"}

func main() {
	name := flag.String("workload", "", "workload: rest-small, rest-large, events or churn")
	seed := flag.Int64("seed", 1, "workload seed; every tenant, model, op order and value derives from it")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "sysbench: need -workload (rest-small, rest-large, events, churn), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs the set-ups, the measured phase(s) and the correctness
// gate, and returns the result line.
func run(wl *workload, seed int64, length time.Duration, traced bool, out string) (*result, error) {
	e := readEnv(seed)
	fmt.Printf("# sysbench workload=%s seed=%d seconds=%g traced=%v\n", wl.name, seed, length.Seconds(), traced)
	var w *world
	setups := make([]float64, wl.setups)
	for i := range setups {
		if w != nil {
			w.close()
			w = nil
			heapMiB() // drop the previous set-up before timing the next
		}
		t0 := time.Now()
		var err error
		if w, err = wl.build(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer w.close()
	sorted := append([]float64(nil), setups...)
	sort.Float64s(sorted)
	setup := sorted[len(sorted)/2]
	fmt.Printf("# setup_s runs: %v\n", fmtFloats(setups))

	steal0, ticks0 := cpuTicks()
	res := &result{}
	var phases []*phase
	if !traced {
		ph := &phase{}
		w.run(ph, length)
		phases = append(phases, ph)
		res.Metrics = endToEnd(setup, ph)
	} else {
		plain, tph := &phase{}, &phase{tr: newTracer()}
		probe := &phase{tr: tph.tr}
		w.run(plain, length/2)
		before := readCounters(w.srv)
		w.run(tph, length/2)
		phases = append(phases, plain, tph, probe)
		var err error
		if res.Metrics, err = layerMetrics(w, before, tph, probe); err != nil {
			return nil, err
		}
		untraced, withSpans := endToEnd(setup, plain), endToEnd(setup, tph)
		for _, k := range e2eOrder[1:] {
			diff := withSpans[k].Value - untraced[k].Value
			fmt.Printf("# tracing overhead %-13s untraced %.6g traced %.6g diff %+.6g %s\n",
				k, untraced[k].Value, withSpans[k].Value, diff, untraced[k].Unit)
		}
		path, err := tph.tr.write(out, spanFile(wl.name, seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(tph.tr.spans), path)
	}
	if steal1, ticks1 := cpuTicks(); ticks1 > ticks0 {
		e.StealFrac = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	envLine, _ := json.Marshal(e) // plain fields always encode
	fmt.Printf("# env %s\n", envLine)

	bad := w.check()
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		bad = append(bad, ph.failures...)
	}
	for _, b := range bad {
		fmt.Printf("# FAILED %s\n", strings.ReplaceAll(b, "\n", "\n#   "))
	}
	res.Correct = len(bad) == 0 && res.Failed == 0
	if !traced {
		for _, k := range e2eOrder {
			fmt.Printf("# %-13s %12.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	return res, nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
