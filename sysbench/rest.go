package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"github.com/mddsm/mddsm/internal/api"
	"github.com/mddsm/mddsm/internal/serve"
)

// restBurst is how many consecutive REST ops make one burst: the REST
// workloads have no other grouping, so burst latency is the time a client
// takes for a transaction of this many requests.
const restBurst = 16

// httpFront is the API server mounted on a loopback listener, with the
// benchmark's single keep-alive client.
type httpFront struct {
	api  *api.Server
	hs   *http.Server
	done chan struct{}
	base string
	hc   *http.Client
}

func startHTTP(srv *serve.Server) (*httpFront, error) {
	a, err := api.New(api.Config{Serve: srv})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		a.Close()
		return nil, err
	}
	f := &httpFront{api: a, hs: &http.Server{Handler: a}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	// One generator goroutine, one keep-alive connection.
	f.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	return f, nil
}

func (f *httpFront) close() {
	f.hc.CloseIdleConnections()
	f.api.Close()
	_ = f.hs.Close() // closing the listener is all that can fail here
	<-f.done
}

// call performs one HTTP round trip and returns the status, the body and
// the round-trip time.
func (f *httpFront) call(method, path string, body any) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, f.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

type opKind int

const (
	opGet opKind = iota
	opPatch
	opPutDelete
	opInvalid
)

// deck is one block of a REST mix: the exact op counts per 100 ops,
// shuffled per block, so every seed runs the same mix.
func deck(patch, get, putDelete, invalid int) []opKind {
	var d []opKind
	for _, c := range []struct {
		k opKind
		n int
	}{{opPatch, patch}, {opGet, get}, {opPutDelete, putDelete}, {opInvalid, invalid}} {
		for i := 0; i < c.n; i++ {
			d = append(d, c.k)
		}
	}
	return d
}

// restGen is the closed-loop REST generator: one goroutine, one
// connection, the next request sent when the previous answer is read.
type restGen struct {
	front *httpFront
	r     *rand.Rand
	// mix is one shuffled block; pos walks it.
	mix []opKind
	pos int
	// choose picks the tenant of op i.
	choose func(r *rand.Rand, i int) *shadow
	ops    int
	// pendingDelete is the tenant whose fresh object the next PUT/DELETE
	// slot deletes.
	pendingDelete *shadow
}

func (d *restGen) nextKind() opKind {
	if d.pos == 0 {
		d.r.Shuffle(len(d.mix), func(i, j int) { d.mix[i], d.mix[j] = d.mix[j], d.mix[i] })
	}
	k := d.mix[d.pos]
	d.pos = (d.pos + 1) % len(d.mix)
	return k
}

func objPath(s *shadow, id string) string {
	return "/tenants/" + s.tenant + "/models/" + s.model + "/objects/" + id
}

// step issues one REST op and checks its answer against the shadow.
func (d *restGen) step(ph *phase) {
	kind := d.nextKind()
	s := d.choose(d.r, d.ops)
	d.ops++
	tr := ph.tr
	tr.nextOp()
	var (
		route, what string
		method      string
		path        string
		body        any
		want        int
		after       func(code int, resp []byte) string
	)
	switch kind {
	case opGet:
		o := s.pickAny(d.r)
		route, method, path, want = "get_object", "GET", objPath(s, o.ID), http.StatusOK
		after = func(_ int, resp []byte) string { return sameObject(resp, o) }
	case opPatch:
		id, attrs := s.rec.patch(d.r, s)
		route, method, path, want = "patch_object", "PATCH", objPath(s, id), http.StatusOK
		body = objectDoc{Attrs: attrs}
		after = func(_ int, resp []byte) string {
			s.patch(id, attrs)
			return sameObject(resp, s.objs[id])
		}
	case opPutDelete:
		if p := d.pendingDelete; p != nil {
			s = p
			id := s.pending
			route, method, path, want = "delete_object", "DELETE", objPath(s, id), http.StatusNoContent
			after = func(int, []byte) string {
				s.remove(id)
				s.pending, d.pendingDelete = "", nil
				return ""
			}
			break
		}
		id := s.nextFreshID()
		doc := s.rec.fresh(d.r, s, id)
		route, method, path, want = "put_object", "PUT", objPath(s, id), http.StatusCreated
		body = doc
		after = func(_ int, resp []byte) string {
			s.put(&doc)
			s.pending, d.pendingDelete = id, s
			return sameObject(resp, &doc)
		}
	case opInvalid:
		id, attrs := s.rec.invalid(d.r, s)
		route, method, path, want = "patch_object_422", "PATCH", objPath(s, id), http.StatusUnprocessableEntity
		body = objectDoc{Attrs: attrs}
		after = func(_ int, resp []byte) string {
			var p struct {
				Problems []string `json:"problems"`
			}
			if err := json.Unmarshal(resp, &p); err != nil || len(p.Problems) == 0 {
				return fmt.Sprintf("422 without a problem list: %s", resp)
			}
			return ""
		}
	}
	root := tr.start("rest." + route)
	sp := tr.start("api." + route)
	code, resp, rtt, err := d.front.call(method, path, body)
	tr.end(sp)
	ph.record(rtt)
	switch {
	case err != nil:
		what = err.Error()
	case code != want:
		what = fmt.Sprintf("status %d, want %d: %s", code, want, bytes.TrimSpace(resp))
	default:
		what = after(code, resp)
	}
	tr.end(root)
	if what != "" {
		ph.fail(fmt.Sprintf("op %d %s %s: %s", d.ops, method, path, what))
	}
}

// sameObject compares a returned object document with the shadow's.
func sameObject(resp []byte, want *objectDoc) string {
	var got objectDoc
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Sprintf("undecodable object: %v", err)
	}
	if g, w := got.canonical(), want.canonical(); g != w {
		return fmt.Sprintf("object differs from the shadow copy:\n got  %s\n want %s", g, w)
	}
	return ""
}

// checkModels compares every tenant's served model, read with
// GET /tenants/{t}/models/{m}, with the shadow copy the benchmark built
// from its own writes.
func checkModels(front *httpFront, tenants []*shadow) []string {
	var bad []string
	for _, s := range tenants {
		code, body, _, err := front.call("GET", "/tenants/"+s.tenant+"/models/"+s.model, nil)
		if err != nil || code != http.StatusOK {
			bad = append(bad, fmt.Sprintf("GET model of %s: %d %v", s.tenant, code, err))
			continue
		}
		var doc struct {
			Objects []objectDoc `json:"objects"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			bad = append(bad, fmt.Sprintf("model of %s: %v", s.tenant, err))
			continue
		}
		got := make([]string, 0, len(doc.Objects))
		for _, o := range doc.Objects {
			got = append(got, o.canonical())
		}
		want := make([]string, 0, len(s.ids))
		for _, id := range s.ids {
			want = append(want, s.objs[id].canonical())
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			bad = append(bad, fmt.Sprintf("model of %s has %d objects, shadow %d", s.tenant, len(got), len(want)))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				bad = append(bad, fmt.Sprintf("model of %s differs from the shadow copy:\n got  %s\n want %s", s.tenant, got[i], want[i]))
				break
			}
		}
	}
	return bad
}
