package cliutil_test

import (
	"flag"
	"io"
	"testing"

	"github.com/mddsm/mddsm/internal/cliutil"
)

// newFS builds a silent flag set so expected parse failures don't spam
// test output.
func newFS(t *testing.T) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet(t.Name(), flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestRegisterDefaults(t *testing.T) {
	fs := newFS(t)
	c := cliutil.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Obs || c.Faults != "" {
		t.Fatalf("unset flags not zero: %+v", c)
	}
	o, inj, rcfg, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o != nil || inj != nil {
		t.Errorf("Resolve without -obs/-faults: obs=%v inj=%v, want nil/nil", o, inj)
	}
	// Without RegisterPump, Resolve must leave the runtime config
	// untouched.
	if rcfg.PumpShards != 0 || rcfg.DeltaValidation {
		t.Errorf("unregistered optional flags leaked into config: %+v", rcfg)
	}
}

func TestResolveObsAndFaults(t *testing.T) {
	fs := newFS(t)
	c := cliutil.Register(fs)
	if err := fs.Parse([]string{"-obs", "-faults", "seed=3,broker.step:error:p=1"}); err != nil {
		t.Fatal(err)
	}
	o, inj, _, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		t.Fatal("-obs did not produce an obs bundle")
	}
	if inj == nil || inj.Seed() != 3 {
		t.Fatalf("-faults injector wrong: %v", inj)
	}
}

func TestResolveBadFaults(t *testing.T) {
	for _, spec := range []string{"not-a-spec", "seed=x", "site:unknown-kind"} {
		fs := newFS(t)
		c := cliutil.Register(fs)
		if err := fs.Parse([]string{"-faults", spec}); err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		if _, _, _, err := c.Resolve(); err == nil {
			t.Errorf("Resolve accepted bad -faults %q", spec)
		}
	}
}

func TestResolveEmptyFaultsIsNoInjector(t *testing.T) {
	fs := newFS(t)
	c := cliutil.Register(fs)
	if err := fs.Parse([]string{"-faults", ""}); err != nil {
		t.Fatal(err)
	}
	_, inj, _, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		t.Error("explicit empty -faults produced an injector")
	}
}

func TestRegisterPumpShards(t *testing.T) {
	fs := newFS(t)
	c := cliutil.Register(fs).RegisterPump(fs)
	if err := fs.Parse([]string{"-pump-shards", "5"}); err != nil {
		t.Fatal(err)
	}
	_, _, rcfg, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rcfg.PumpShards != 5 {
		t.Errorf("PumpShards = %d, want 5", rcfg.PumpShards)
	}
}

func TestConflictingFlagCombination(t *testing.T) {
	// -faults with -obs binds fired-fault metrics to the obs bundle; the
	// full flag set must resolve into all three runtime objects.
	fs := newFS(t)
	c := cliutil.Register(fs).RegisterPump(fs)
	if err := fs.Parse([]string{"-obs", "-faults", "seed=1,pump.post:drop:p=0.5", "-pump-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	o, inj, rcfg, err := c.Resolve()
	if err != nil {
		t.Fatalf("full flag set: %v", err)
	}
	if o == nil || inj == nil || rcfg.PumpShards != 2 {
		t.Errorf("full flag set resolved to obs=%v inj=%v shards=%d", o, inj, rcfg.PumpShards)
	}
}

func TestUnknownFlagRejected(t *testing.T) {
	fs := newFS(t)
	cliutil.Register(fs)
	if err := fs.Parse([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
