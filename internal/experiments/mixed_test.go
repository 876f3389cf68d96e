package experiments

import (
	"bytes"
	goruntime "runtime"
	"testing"
	"time"
)

// TestMixedSoak is the standing soak bar: ≥100 concurrent heterogeneous
// platforms (≥20 distinct synthetic bundles plus the four hand-built
// ones) under seeded faults — admission drops AND broker-side errors —
// with evict/rehydrate churn, asserting the exact per-tenant accounting
// invariant and zero goroutine leaks. CI runs it under -race at a fixed
// seed.
func TestMixedSoak(t *testing.T) {
	before := goruntime.NumGoroutine()

	cfg := DefaultMixedConfig()
	// Harsher than the canonical bench: error faults on the broker's step
	// and event paths drive the failure/dead-letter buckets of the ledger,
	// not just the happy path.
	cfg.Faults = "seed=7,pump.post:drop:p=0.01,broker.step:error:p=0.02,broker.event:error:p=0.02"
	rep, err := MeasureMixed(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Tenants < 100 {
		t.Errorf("soak ran %d tenants, want >= 100", rep.Tenants)
	}
	if rep.SyntheticBundles < 20 {
		t.Errorf("soak used %d synthetic bundles, want >= 20", rep.SyntheticBundles)
	}
	if !rep.AccountingExact {
		t.Errorf("exact accounting violated: %+v", rep.Bundles)
	}
	if len(rep.PerTenant) != rep.Tenants {
		t.Errorf("ledger covers %d tenants, want %d", len(rep.PerTenant), rep.Tenants)
	}
	for name, a := range rep.PerTenant {
		if !a.Exact() {
			t.Errorf("tenant %s: posted %d != delivered %d + failures %d + dlq %d + dropped %d",
				name, a.Posted, a.Delivered, a.Failures, a.DeadLettered, a.Dropped)
		}
	}
	if rep.Accepted == 0 || rep.Accepted+rep.Rejected != rep.Events {
		t.Errorf("driver totals inconsistent: events=%d accepted=%d rejected=%d",
			rep.Events, rep.Accepted, rep.Rejected)
	}
	if rep.Evictions == 0 || rep.Rehydrations == 0 {
		t.Errorf("no churn happened: evictions=%d rehydrations=%d", rep.Evictions, rep.Rehydrations)
	}
	// The armed drop site must actually have fired across ~10k posts.
	if rep.Rejected == 0 {
		t.Error("pump.post drops never fired")
	}

	// Zero goroutine leaks: every platform was evicted (stopped) and the
	// server closed. Allow the runtime a moment to park exiting
	// goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := goruntime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before soak, %d after", before, goruntime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMixedReportByteDeterministic: two runs of the canonical config must
// serialise to identical canonical bytes (wall-clock fields zeroed), so
// the per-tenant ledgers are a pure function of the config.
func TestMixedReportByteDeterministic(t *testing.T) {
	a, err := MeasureMixed(MixedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureMixed(MixedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same config, different report bytes:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", ja, jb)
	}
	if !a.AccountingExact {
		t.Error("canonical run violates exact accounting")
	}
}
