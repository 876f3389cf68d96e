package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/metamodel"
)

// objectDoc is the REST wire form of one model object.
type objectDoc struct {
	ID    string              `json:"id,omitempty"`
	Class string              `json:"class,omitempty"`
	Attrs map[string]any      `json:"attrs,omitempty"`
	Refs  map[string][]string `json:"refs,omitempty"`
}

// canonical renders a document for comparison: encoding/json sorts map
// keys, so equal documents render equal bytes.
func (d objectDoc) canonical() string {
	refs := make(map[string][]string, len(d.Refs))
	for k, v := range d.Refs {
		if len(v) > 0 {
			refs[k] = v
		}
	}
	d.Refs = refs
	b, _ := json.Marshal(d) // plain strings, numbers and bools always encode
	return string(b)
}

// shadow is the benchmark's own copy of one tenant's model, built from the
// writes the benchmark made. Every object sets every attribute explicitly,
// so the served model must equal the shadow exactly.
type shadow struct {
	tenant string
	rec    *recipe
	model  string // metamodel name, the {model} route segment
	ids    []string
	objs   map[string]*objectDoc
	// byClass lists the seeded objects per class; only seeded objects are
	// patched or read, fresh ones are created and deleted in pairs.
	byClass map[string][]string
	fresh   int
	pending string // fresh object awaiting its DELETE
}

func newShadow(tenant string, rec *recipe, docs []objectDoc) *shadow {
	s := &shadow{tenant: tenant, rec: rec, model: rec.model,
		objs: make(map[string]*objectDoc), byClass: make(map[string][]string)}
	for i := range docs {
		d := docs[i]
		s.put(&d)
		s.byClass[d.Class] = append(s.byClass[d.Class], d.ID)
	}
	return s
}

func (s *shadow) put(d *objectDoc) {
	if _, ok := s.objs[d.ID]; !ok {
		s.ids = append(s.ids, d.ID)
	}
	s.objs[d.ID] = d
}

// remove deletes an object and strips references to it, as the REST
// DELETE handler does.
func (s *shadow) remove(id string) {
	delete(s.objs, id)
	for i, x := range s.ids {
		if x == id {
			s.ids = append(s.ids[:i], s.ids[i+1:]...)
			break
		}
	}
	for _, d := range s.objs {
		for name, targets := range d.Refs {
			kept := targets[:0:0]
			for _, t := range targets {
				if t != id {
					kept = append(kept, t)
				}
			}
			d.Refs[name] = kept
		}
	}
}

func (s *shadow) patch(id string, attrs map[string]any) {
	d := s.objs[id]
	for k, v := range attrs {
		d.Attrs[k] = v
	}
}

func (s *shadow) pick(r *rand.Rand, class string) *objectDoc {
	ids := s.byClass[class]
	return s.objs[ids[r.Intn(len(ids))]]
}

func (s *shadow) pickAny(r *rand.Rand) *objectDoc {
	classes := make([]string, 0, len(s.byClass))
	for c := range s.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return s.pick(r, classes[r.Intn(len(classes))])
}

// toModel builds the metamodel form of the shadow, objects in insertion
// order.
func (s *shadow) toModel() *metamodel.Model {
	m := metamodel.NewModel(s.model)
	for _, id := range s.ids {
		d := s.objs[id]
		o := m.NewObject(d.ID, d.Class)
		for k, v := range d.Attrs {
			o.SetAttr(k, v)
		}
		for k, v := range d.Refs {
			if len(v) > 0 {
				o.SetRef(k, v...)
			}
		}
	}
	return m
}

func (s *shadow) nextFreshID() string {
	s.fresh++
	return fmt.Sprintf("x%d", s.fresh)
}

// recipe is how the benchmark drives one domain bundle: the seed models
// it generates from the bundle's metamodel, the writes it makes and the
// events it posts. Writes are chosen so that, where the bundle's synthesis
// LTS has a transition for the change, the command reaches the adapters.
type recipe struct {
	bundle string
	model  string
	// seed generates n objects.
	seed func(r *rand.Rand, n int) []objectDoc
	// patch returns a valid attribute change on a seeded object.
	patch func(r *rand.Rand, s *shadow) (id string, attrs map[string]any)
	// fresh returns a new object for a PUT that a later DELETE removes.
	fresh func(r *rand.Rand, s *shadow, id string) objectDoc
	// invalid returns a PATCH the validator must refuse with 422.
	invalid func(r *rand.Rand, s *shadow) (id string, attrs map[string]any)
	// acted is an event the bundle's middleware model acts on; nil means
	// the model acts on none of the events it can receive.
	acted func(r *rand.Rand, s *shadow) broker.Event
	// unmatched is an event every layer passes on as a no-op.
	unmatched func(r *rand.Rand, s *shadow) broker.Event
}

func pickStr(r *rand.Rand, xs ...string) string { return xs[r.Intn(len(xs))] }

// changed returns a value from gen that differs from cur, so every PATCH
// is a real change.
func changed(r *rand.Rand, cur any, gen func(*rand.Rand) any) any {
	for {
		if v := gen(r); v != cur {
			return v
		}
	}
}

func bandwidth(r *rand.Rand) any { return float64(32 + r.Intn(480)) }

var roles = []string{"host", "speaker", "listener", "moderator", "guest", "observer"}

func role(r *rand.Rand) any { return pickStr(r, roles...) + fmt.Sprint(r.Intn(1000)) }

// cmlLayout generates a communication model: persons, sessions that
// reference persons as participants and contain streams, streams that
// contain attachments.
func cmlLayout(r *rand.Rand, persons, sessions, streamsPer, attachments int) []objectDoc {
	var docs []objectDoc
	for i := 0; i < persons; i++ {
		docs = append(docs, objectDoc{ID: fmt.Sprintf("p%d", i), Class: "Person", Attrs: map[string]any{
			"name": fmt.Sprintf("person-%d-%d", i, r.Intn(1e6)), "role": role(r)}})
	}
	type streamRef struct{ id, session string }
	var streams []streamRef
	var sessionDocs, streamDocs, attachmentDocs []objectDoc
	for i := 0; i < sessions; i++ {
		sid := fmt.Sprintf("s%d", i)
		d := objectDoc{ID: sid, Class: "Session", Attrs: map[string]any{"topic": fmt.Sprintf("topic-%d", r.Intn(1e6))},
			Refs: map[string][]string{}}
		if persons > 0 {
			a, b := r.Intn(persons), r.Intn(persons)
			d.Refs["participants"] = []string{fmt.Sprintf("p%d", a)}
			if b != a {
				d.Refs["participants"] = append(d.Refs["participants"], fmt.Sprintf("p%d", b))
			}
		}
		for j := 0; j < streamsPer; j++ {
			stid := fmt.Sprintf("st%d", len(streams))
			streams = append(streams, streamRef{stid, sid})
			d.Refs["streams"] = append(d.Refs["streams"], stid)
			streamDocs = append(streamDocs, objectDoc{ID: stid, Class: "Stream", Attrs: map[string]any{
				"media": pickStr(r, "audio", "video", "chat"), "bandwidth": bandwidth(r), "session": sid},
				Refs: map[string][]string{}})
		}
		sessionDocs = append(sessionDocs, d)
	}
	for i := 0; i < attachments && len(streams) > 0; i++ {
		k := i % len(streams)
		aid := fmt.Sprintf("a%d", i)
		streamDocs[k].Refs["attachments"] = append(streamDocs[k].Refs["attachments"], aid)
		attachmentDocs = append(attachmentDocs, objectDoc{ID: aid, Class: "Attachment", Attrs: map[string]any{
			"name": fmt.Sprintf("file-%d.bin", r.Intn(1e6)), "sizeKB": float64(1 + r.Intn(500)),
			"stream": streams[k].id, "session": streams[k].session}})
	}
	docs = append(docs, sessionDocs...)
	docs = append(docs, streamDocs...)
	return append(docs, attachmentDocs...)
}

// cmlRecipe drives the communication bundle. roleShare is the share of
// PATCHes that change Person.role (no synthesis transition); the rest
// change Stream.bandwidth, which becomes reconfigureStream at the comm
// adapter.
func cmlRecipe(roleShare float64) *recipe {
	return &recipe{
		bundle: "cml", model: "cml",
		seed: func(r *rand.Rand, n int) []objectDoc {
			// 3 persons, 2 sessions with 2 streams each; attachments
			// fill the rest.
			return cmlLayout(r, 3, 2, 2, max(n-9, 0))
		},
		patch: func(r *rand.Rand, s *shadow) (string, map[string]any) {
			if r.Float64() < roleShare {
				p := s.pick(r, "Person")
				return p.ID, map[string]any{"role": changed(r, p.Attrs["role"], role)}
			}
			st := s.pick(r, "Stream")
			return st.ID, map[string]any{"bandwidth": changed(r, st.Attrs["bandwidth"], bandwidth)}
		},
		// A fresh stream joins an existing session: openStream goes
		// through intent-model generation and the EU.
		fresh: func(r *rand.Rand, s *shadow, id string) objectDoc {
			return objectDoc{ID: id, Class: "Stream", Attrs: map[string]any{
				"media": pickStr(r, "audio", "video", "chat"), "bandwidth": bandwidth(r), "session": s.pick(r, "Session").ID}}
		},
		invalid: func(r *rand.Rand, s *shadow) (string, map[string]any) {
			return s.pick(r, "Stream").ID, map[string]any{"media": "hologram"}
		},
		acted: func(r *rand.Rand, s *shadow) broker.Event {
			st := s.pick(r, "Stream")
			return broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": st.ID, "session": st.Attrs["session"]}}
		},
		unmatched: func(r *rand.Rand, s *shadow) broker.Event {
			return broker.Event{Name: "telemetry", Attrs: map[string]any{"load": float64(r.Intn(100))}}
		},
	}
}

func mgridRecipe() *recipe {
	return &recipe{
		bundle: "mgrid", model: "mgridml",
		seed: func(r *rand.Rand, n int) []objectDoc {
			// The balance procedures drive the devices named battery and
			// gridtie, so every grid has them.
			grid := objectDoc{ID: "grid", Class: "Microgrid", Attrs: map[string]any{"name": fmt.Sprintf("grid-%d", r.Intn(1e6))},
				Refs: map[string][]string{}}
			dev := func(id, kind string, capacity, output float64) objectDoc {
				grid.Refs["devices"] = append(grid.Refs["devices"], id)
				return objectDoc{ID: id, Class: "DeviceCfg", Attrs: map[string]any{
					"kind": kind, "capacity": capacity, "output": output, "online": true}}
			}
			docs := []objectDoc{dev("battery", "battery", 1000, 0), dev("gridtie", "gridtie", 1000, 0), dev("load", "load", 50, 10)}
			for i := 0; i < 2; i++ {
				id := fmt.Sprintf("pol%d", i)
				grid.Refs["policies"] = append(grid.Refs["policies"], id)
				docs = append(docs, objectDoc{ID: id, Class: "EnergyPolicy", Attrs: map[string]any{
					"name": fmt.Sprintf("policy-%d", r.Intn(1e6)), "reserve": float64(r.Intn(50)) / 100}})
			}
			for i := 0; len(docs) < n-1; i++ {
				capacity := float64(100 + r.Intn(400))
				docs = append(docs, dev(fmt.Sprintf("pv%d", i), "solar", capacity, float64(r.Intn(int(capacity)))))
			}
			return append([]objectDoc{grid}, docs...)
		},
		patch: func(r *rand.Rand, s *shadow) (string, map[string]any) {
			d := s.pick(r, "DeviceCfg")
			capacity := int(d.Attrs["capacity"].(float64))
			return d.ID, map[string]any{"output": changed(r, d.Attrs["output"], func(r *rand.Rand) any {
				return float64(r.Intn(capacity))
			})}
		},
		fresh: func(r *rand.Rand, s *shadow, id string) objectDoc {
			return objectDoc{ID: id, Class: "EnergyPolicy", Attrs: map[string]any{
				"name": fmt.Sprintf("adhoc-%d", r.Intn(1e6)), "reserve": float64(r.Intn(50)) / 100}}
		},
		invalid: func(r *rand.Rand, s *shadow) (string, map[string]any) {
			return s.pick(r, "DeviceCfg").ID, map[string]any{"kind": "fusion"}
		},
		acted: func(r *rand.Rand, s *shadow) broker.Event {
			return broker.Event{Name: "rebalanceNeeded", Attrs: map[string]any{"headroom": float64(1 + r.Intn(100))}}
		},
		unmatched: func(r *rand.Rand, s *shadow) broker.Event {
			return broker.Event{Name: "telemetry", Attrs: map[string]any{"load": float64(r.Intn(100))}}
		},
	}
}

var (
	kinds  = []string{"lamp", "door", "blind", "speaker", "thermostat"}
	events = []string{"objectEntered", "objectLeft"}
)

func smartspaceRecipe() *recipe {
	ruleValue := func(r *rand.Rand) any { return fmt.Sprint(r.Intn(1000)) }
	return &recipe{
		bundle: "smartspace", model: "2sml",
		seed: func(r *rand.Rand, n int) []objectDoc {
			var docs []objectDoc
			users, objects := 2, (n-2)/2
			for i := 0; i < users; i++ {
				docs = append(docs, objectDoc{ID: fmt.Sprintf("u%d", i), Class: "User",
					Attrs: map[string]any{"name": fmt.Sprintf("user-%d", r.Intn(1e6))}})
			}
			for i := 0; i < objects; i++ {
				docs = append(docs, objectDoc{ID: fmt.Sprintf("o%d", i), Class: "ObjectDecl",
					Attrs: map[string]any{"kind": pickStr(r, kinds...)}})
			}
			for i := 0; len(docs) < n; i++ {
				docs = append(docs, objectDoc{ID: fmt.Sprintf("r%d", i), Class: "Rule", Attrs: map[string]any{
					"onEvent": pickStr(r, events...), "subject": fmt.Sprintf("o%d", r.Intn(objects)),
					"targetObject": fmt.Sprintf("o%d", r.Intn(objects)), "prop": "level", "value": ruleValue(r)}})
			}
			return docs
		},
		// The 2SML synthesis LTS has no attribute transitions, so its
		// PATCHes stop at Synthesis; its PUT/DELETE pairs arm and disarm
		// rules at the hub.
		patch: func(r *rand.Rand, s *shadow) (string, map[string]any) {
			d := s.pick(r, "Rule")
			return d.ID, map[string]any{"value": changed(r, d.Attrs["value"], ruleValue)}
		},
		fresh: func(r *rand.Rand, s *shadow, id string) objectDoc {
			return objectDoc{ID: id, Class: "Rule", Attrs: map[string]any{
				"onEvent": pickStr(r, events...), "subject": "*",
				"targetObject": s.pick(r, "ObjectDecl").ID, "prop": "level", "value": ruleValue(r)}}
		},
		invalid: func(r *rand.Rand, s *shadow) (string, map[string]any) {
			return s.pick(r, "Rule").ID, map[string]any{"onEvent": "objectExploded"}
		},
		unmatched: func(r *rand.Rand, s *shadow) broker.Event {
			return broker.Event{Name: pickStr(r, events...), Attrs: map[string]any{"object": s.pick(r, "ObjectDecl").ID, "prop": "level"}}
		},
	}
}

var (
	sensors = []string{"temperature", "noise", "light", "humidity"}
	regions = []string{"", "north", "south", "east", "west"}
	aggs    = []string{"avg", "min", "max", "count"}
)

func csenseRecipe() *recipe {
	return &recipe{
		bundle: "csense", model: "csml",
		seed: func(r *rand.Rand, n int) []objectDoc {
			docs := make([]objectDoc, n)
			for i := range docs {
				docs[i] = objectDoc{ID: fmt.Sprintf("q%d", i), Class: "Query", Attrs: map[string]any{
					"sensor": pickStr(r, sensors...), "region": pickStr(r, regions...), "aggregate": pickStr(r, aggs...)}}
			}
			return docs
		},
		patch: func(r *rand.Rand, s *shadow) (string, map[string]any) {
			d := s.pick(r, "Query")
			attr, pool := "region", regions
			switch r.Intn(3) {
			case 1:
				attr, pool = "aggregate", aggs
			case 2:
				attr, pool = "sensor", sensors
			}
			return d.ID, map[string]any{attr: changed(r, d.Attrs[attr], func(r *rand.Rand) any { return pickStr(r, pool...) })}
		},
		fresh: func(r *rand.Rand, s *shadow, id string) objectDoc {
			return objectDoc{ID: id, Class: "Query", Attrs: map[string]any{
				"sensor": pickStr(r, sensors...), "region": pickStr(r, regions...), "aggregate": pickStr(r, aggs...)}}
		},
		invalid: func(r *rand.Rand, s *shadow) (string, map[string]any) {
			return s.pick(r, "Query").ID, map[string]any{"aggregate": "median"}
		},
		unmatched: func(r *rand.Rand, s *shadow) broker.Event {
			return broker.Event{Name: pickStr(r, "queryResult", "deviceJoined"), Attrs: map[string]any{
				"query": s.pick(r, "Query").ID, "value": float64(r.Intn(100))}}
		},
	}
}
