package runtime

import (
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/obs"
)

// FuzzRestoreSnapshot throws arbitrary bytes at the snapshot decoder: a
// malformed snapshot must produce an error, never a panic, and any
// snapshot the decoder does accept must yield a platform that starts and
// stops cleanly. Seed corpus: one genuine checkpoint plus the malformed
// shapes pinned by TestRestoreRejectsBadSnapshots.
func FuzzRestoreSnapshot(f *testing.F) {
	// A genuine checkpoint seeds the corpus so mutations explore the
	// accepted grammar, not just the reject paths.
	r := &rec{}
	deps := Deps{
		DSML:       toyDSML(f),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": r},
		Repository: toyRepo(f),
	}
	p, err := Build(fullModel(f), deps, Config{})
	if err != nil {
		f.Fatal(err)
	}
	d := p.UI.NewDraft()
	d.MustAdd("s1", "Session").SetRef("streams", "st1")
	d.MustAdd("st1", "Stream").SetAttr("media", "audio")
	if _, err := d.Submit(); err != nil {
		f.Fatal(err)
	}
	snap, err := p.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"version": 99}`))
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{"version": 1, "middleware": {"objects": 42}}`))
	f.Add(snap[:len(snap)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &rec{}
		fdeps := Deps{
			DSML:       toyDSML(t),
			LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
			Adapters:   map[string]broker.Adapter{"main": fr},
			Repository: toyRepo(t),
			Metrics:    obs.NewMetrics(),
		}
		fp, err := Restore(data, fdeps, Config{})
		if err != nil {
			return // rejected — the only acceptable failure mode
		}
		// Accepted snapshots must yield a live, stoppable platform.
		fp.Start()
		fp.PostEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "fz"}})
		fp.Stop()
	})
}
