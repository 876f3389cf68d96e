// Package api auto-provisions a REST + SSE interface over a multi-tenant
// platform server. Routes are derived from each tenant's metamodel —
// classes become collections, attributes become fields — so any DSML
// registered as a bundle (hand-built or domgen-generated) gets an HTTP
// API for free. Every write is funnelled through the compiled validator
// before commit: the served model always conforms, and non-conformant
// requests are rejected with the validator's exact problem list.
//
// Routes:
//
//	GET    /healthz                                     supervisor state
//	GET    /metrics                                     Prometheus text
//	GET    /tenants                                     tenant directory
//	POST   /tenants/{tenant}                            create (body {"bundle": ...})
//	GET    /tenants/{tenant}                            stat / accounting
//	DELETE /tenants/{tenant}                            forget
//	GET    /tenants/{tenant}/models/{model}             full model document
//	GET    /tenants/{tenant}/models/{model}/classes     provisioning schema
//	GET    /tenants/{tenant}/models/{model}/classes/{class}/objects
//	GET    /tenants/{tenant}/models/{model}/objects
//	GET    /tenants/{tenant}/models/{model}/objects/{id}
//	PUT    /tenants/{tenant}/models/{model}/objects/{id}
//	PATCH  /tenants/{tenant}/models/{model}/objects/{id}
//	DELETE /tenants/{tenant}/models/{model}/objects/{id}
//	POST   /tenants/{tenant}/events                     post a domain event
//	GET    /tenants/{tenant}/watch                      SSE model delta stream
//
// In a cluster, tenant-scoped requests for a tenant owned by a peer are
// answered with 307 redirects to the owner's HTTP address from the
// placement map; requests for parked local tenants transparently
// rehydrate them.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/cluster"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/serve"
)

// maxBody bounds request document size; larger writes get 413.
const maxBody = 1 << 20

// Config assembles an API server.
type Config struct {
	// Serve is the tenant host every request is answered from. Required.
	Serve *serve.Server
	// Cluster, when set, enables ownership checks: requests for tenants
	// placed on a peer are redirected instead of answered locally.
	Cluster *cluster.Node
	// PeerHTTP maps cluster member IDs to their HTTP base addresses
	// ("host:port" or "http://host:port") for placement redirects.
	PeerHTTP map[string]string
	// Obs is the server-wide observability bundle /metrics renders
	// unlabeled. Defaults to Serve's bundle.
	Obs *obs.Obs
}

// Server is the auto-provisioned HTTP front end. It implements
// http.Handler; mount it on any listener.
type Server struct {
	serve *serve.Server
	node  *cluster.Node
	peers map[string]string
	obs   *obs.Obs
	mux   *http.ServeMux
	hub   *hub
	done  chan struct{}
	once  sync.Once

	mu      sync.Mutex
	writers map[string]*sync.Mutex

	mRequests, mProblems, mWrites, mWritesRejected *obs.Counter
	mEvents, mRedirects                            *obs.Counter
	hRequest                                       *obs.Histogram
}

// New builds the API server over srv and subscribes its watch hub to
// every model the host commits. Install one API server per serve.Server.
func New(cfg Config) (*Server, error) {
	if cfg.Serve == nil {
		return nil, fmt.Errorf("api: Config.Serve is required")
	}
	if cfg.Obs == nil {
		cfg.Obs = cfg.Serve.Obs()
	}
	met := cfg.Obs.MetricsOf()
	s := &Server{
		serve:   cfg.Serve,
		node:    cfg.Cluster,
		peers:   cfg.PeerHTTP,
		obs:     cfg.Obs,
		mux:     http.NewServeMux(),
		done:    make(chan struct{}),
		writers: make(map[string]*sync.Mutex),

		mRequests:       met.Counter(obs.MAPIRequests),
		mProblems:       met.Counter(obs.MAPIProblems),
		mWrites:         met.Counter(obs.MAPIWrites),
		mWritesRejected: met.Counter(obs.MAPIWritesRejected),
		mEvents:         met.Counter(obs.MAPIEventsAccepted),
		mRedirects:      met.Counter(obs.MAPIRedirects),
		hRequest:        met.Histogram(obs.HAPIRequest),
	}
	s.hub = newHub(met)
	cfg.Serve.SetModelObserver(s.hub)
	s.routes()
	return s, nil
}

// Close releases streaming resources: every SSE watcher is disconnected
// and further watch requests are refused. The underlying serve.Server is
// not touched.
func (s *Server) Close() {
	s.once.Do(func() {
		close(s.done)
		s.hub.close()
	})
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /tenants", s.handleTenants)
	s.mux.HandleFunc("POST /tenants/{tenant}", s.tenantRoute(s.handleCreate))
	s.mux.HandleFunc("GET /tenants/{tenant}", s.tenantRoute(s.handleStat))
	s.mux.HandleFunc("DELETE /tenants/{tenant}", s.tenantRoute(s.handleForget))
	s.mux.HandleFunc("GET /tenants/{tenant}/models/{model}", s.tenantRoute(s.handleModel))
	s.mux.HandleFunc("GET /tenants/{tenant}/models/{model}/classes", s.tenantRoute(s.handleClasses))
	s.mux.HandleFunc("GET /tenants/{tenant}/models/{model}/classes/{class}/objects", s.tenantRoute(s.handleClassObjects))
	s.mux.HandleFunc("GET /tenants/{tenant}/models/{model}/objects", s.tenantRoute(s.handleObjects))
	s.mux.HandleFunc("GET /tenants/{tenant}/models/{model}/objects/{id}", s.tenantRoute(s.handleGetObject))
	s.mux.HandleFunc("PUT /tenants/{tenant}/models/{model}/objects/{id}", s.tenantRoute(s.handlePutObject))
	s.mux.HandleFunc("PATCH /tenants/{tenant}/models/{model}/objects/{id}", s.tenantRoute(s.handlePatchObject))
	s.mux.HandleFunc("DELETE /tenants/{tenant}/models/{model}/objects/{id}", s.tenantRoute(s.handleDeleteObject))
	s.mux.HandleFunc("POST /tenants/{tenant}/events", s.tenantRoute(s.handlePostEvent))
	s.mux.HandleFunc("GET /tenants/{tenant}/watch", s.tenantRoute(s.handleWatch))
}

// statusRecorder captures the response code for the problems counter
// while passing Flush through for SSE streams.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP implements http.Handler with request accounting around the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r)
	s.mRequests.Inc()
	s.hRequest.Observe(time.Since(start))
	if rec.status >= 400 {
		s.mProblems.Inc()
	}
}

// tenantRoute wraps a tenant-scoped handler with the cluster placement
// check: tenants owned by a peer are 307-redirected to that peer's HTTP
// address so any node can be dialled for any tenant.
func (s *Server) tenantRoute(h func(w http.ResponseWriter, r *http.Request, tenant string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("tenant")
		if s.redirected(w, r, tenant) {
			return
		}
		h(w, r, tenant)
	}
}

func (s *Server) redirected(w http.ResponseWriter, r *http.Request, tenant string) bool {
	if s.node == nil {
		return false
	}
	owner := s.node.Owner(tenant)
	if owner == "" || owner == s.node.ID() {
		return false
	}
	s.mRedirects.Inc()
	base, ok := s.peers[owner]
	if !ok {
		writeProblem(w, http.StatusBadGateway, "tenant owned by peer",
			fmt.Sprintf("tenant %q is placed on member %q, which has no known HTTP address", tenant, owner), nil)
		return true
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	http.Redirect(w, r, strings.TrimRight(base, "/")+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}

// writeLock serialises REST writes per tenant so concurrent
// read-mutate-submit cycles do not lose updates.
func (s *Server) writeLock(tenant string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	lk, ok := s.writers[tenant]
	if !ok {
		lk = &sync.Mutex{}
		s.writers[tenant] = lk
	}
	return lk
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	comps := s.serve.Health()
	status, code := "ok", http.StatusOK
	for _, h := range comps {
		switch h {
		case "quarantined":
			status, code = "quarantined", http.StatusServiceUnavailable
		case "degraded":
			if status == "ok" {
				status = "degraded"
			}
		}
	}
	doc := map[string]any{
		"status":     status,
		"resident":   s.serve.Resident(),
		"tenants":    len(s.serve.Tenants()),
		"components": comps,
	}
	if s.node != nil {
		doc["node"] = s.node.ID()
		doc["members"] = s.node.Members()
	}
	writeJSON(w, code, doc)
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"tenants":  s.serve.Tenants(),
		"resident": s.serve.Resident(),
		"bundles":  domains.Names(),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request, tenant string) {
	var doc struct {
		Bundle string `json:"bundle"`
	}
	if !decodeBody(w, r, &doc) {
		return
	}
	if doc.Bundle == "" {
		writeProblem(w, http.StatusBadRequest, "missing bundle",
			"request body must name the domain bundle to provision", domains.Names())
		return
	}
	if err := s.serve.Create(tenant, doc.Bundle); err != nil {
		serveCreateProblem(w, err)
		return
	}
	_, mm, err := s.serve.Model(tenant)
	if err != nil {
		serveProblem(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"tenant":    tenant,
		"bundle":    doc.Bundle,
		"metamodel": mm.Name,
		"model":     "/tenants/" + tenant + "/models/" + mm.Name,
	})
}

// serveCreateProblem distinguishes the Create refusals: duplicates are
// conflicts, anything else (unknown bundle, empty name) is a bad request
// listing the bundles that do exist.
func serveCreateProblem(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrTenantExists) {
		serveProblem(w, err)
		return
	}
	writeProblem(w, http.StatusBadRequest, "cannot create tenant", err.Error(), domains.Names())
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request, tenant string) {
	st, err := s.serve.Stat(tenant)
	if err != nil {
		serveProblem(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleForget(w http.ResponseWriter, r *http.Request, tenant string) {
	if err := s.serve.Forget(tenant); err != nil {
		serveProblem(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePostEvent(w http.ResponseWriter, r *http.Request, tenant string) {
	var doc struct {
		Name  string         `json:"name"`
		Attrs map[string]any `json:"attrs"`
	}
	if !decodeBody(w, r, &doc) {
		return
	}
	if doc.Name == "" {
		writeProblem(w, http.StatusBadRequest, "missing event name",
			`request body must carry {"name": ..., "attrs": {...}}`, nil)
		return
	}
	if err := s.serve.PostEvent(tenant, broker.Event{Name: doc.Name, Attrs: doc.Attrs}); err != nil {
		serveProblem(w, err)
		return
	}
	s.mEvents.Inc()
	writeJSON(w, http.StatusAccepted, map[string]any{"accepted": true, "event": doc.Name})
}

// decodeBody parses a bounded JSON request body, writing a 400 problem
// (or 413 when over the size cap) on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(body)
	if err := dec.Decode(into); err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "request body too large") {
			status = http.StatusRequestEntityTooLarge
		}
		writeProblem(w, status, "malformed request body", err.Error(), nil)
		return false
	}
	return true
}
