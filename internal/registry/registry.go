// Package registry implements the Controller's procedure repository (paper
// §V-B). A Procedure carries the metadata the intent-model generator
// operates on — its classifying DSC, DSC-described dependencies, and QoS
// attributes — along with the execution unit that embodies it.
package registry

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/eu"
)

// Procedure is one repository entry.
type Procedure struct {
	// ID is the unique procedure identifier.
	ID string
	// Name is the human-readable label.
	Name string
	// Domain names the owning application domain.
	Domain string
	// ClassifiedBy is the single DSC that classifies the procedure (the
	// paper constrains a procedure to exactly one classifying DSC).
	ClassifiedBy string
	// Dependencies lists the DSCs of the operations this procedure calls.
	Dependencies []string
	// Cost is the abstract execution cost used by cost-minimising
	// selection policies (virtual milliseconds per activation).
	Cost float64
	// Reliability is a [0,1] QoS attribute.
	Reliability float64
	// Unit is the executable body run by the stack machine.
	Unit *eu.Unit
	// Tags carries free-form metadata consulted by selection policies.
	Tags map[string]string
}

// Tag returns a metadata tag ("" when absent).
func (p *Procedure) Tag(key string) string { return p.Tags[key] }

// Repository is a validated procedure store indexed for DSC matching.
type Repository struct {
	taxonomy *dsc.Taxonomy
	procs    map[string]*Procedure
	order    []string
	sealed   atomic.Bool
}

// NewRepository creates a repository bound to a classifier taxonomy.
func NewRepository(taxonomy *dsc.Taxonomy) *Repository {
	return &Repository{
		taxonomy: taxonomy,
		procs:    make(map[string]*Procedure),
	}
}

// Taxonomy returns the classifier taxonomy the repository is bound to.
func (r *Repository) Taxonomy() *dsc.Taxonomy { return r.taxonomy }

// Add registers a procedure after checking its classifier and dependencies
// resolve to operation classifiers in the taxonomy. A sealed repository
// refuses it.
func (r *Repository) Add(p *Procedure) error {
	if r.sealed.Load() {
		return fmt.Errorf("procedure %q: repository is sealed", p.ID)
	}
	if p.ID == "" {
		return fmt.Errorf("procedure with empty ID")
	}
	if _, ok := r.procs[p.ID]; ok {
		return fmt.Errorf("duplicate procedure %q", p.ID)
	}
	cls := r.taxonomy.Get(p.ClassifiedBy)
	if cls == nil {
		return fmt.Errorf("procedure %s: unknown classifier %q", p.ID, p.ClassifiedBy)
	}
	if cls.Category != dsc.Operation {
		return fmt.Errorf("procedure %s: classifier %q is a %s classifier, want operation",
			p.ID, p.ClassifiedBy, cls.Category)
	}
	for _, dep := range p.Dependencies {
		d := r.taxonomy.Get(dep)
		if d == nil {
			return fmt.Errorf("procedure %s: unknown dependency %q", p.ID, dep)
		}
		if d.Category != dsc.Operation {
			return fmt.Errorf("procedure %s: dependency %q is a %s classifier, want operation",
				p.ID, dep, d.Category)
		}
	}
	if p.Reliability < 0 || p.Reliability > 1 {
		return fmt.Errorf("procedure %s: reliability %v out of [0,1]", p.ID, p.Reliability)
	}
	r.procs[p.ID] = p
	r.order = append(r.order, p.ID)
	return nil
}

// MustAdd is Add that panics on error, for static DSK construction.
func (r *Repository) MustAdd(p *Procedure) *Procedure {
	if err := r.Add(p); err != nil {
		panic(err)
	}
	return p
}

// Seal makes the repository read-only: every later Add and Remove fails.
// A repository is sealed once it is shared by the platforms of a domain,
// whose Controllers read it concurrently.
func (r *Repository) Seal() { r.sealed.Store(true) }

// Get returns the procedure with the given ID, or nil.
func (r *Repository) Get(id string) *Procedure { return r.procs[id] }

// Remove deletes a procedure. Removing an absent ID, or removing from a
// sealed repository, is an error.
func (r *Repository) Remove(id string) error {
	if r.sealed.Load() {
		return fmt.Errorf("procedure %q: repository is sealed", id)
	}
	if _, ok := r.procs[id]; !ok {
		return fmt.Errorf("procedure %q not found", id)
	}
	delete(r.procs, id)
	for i, pid := range r.order {
		if pid == id {
			r.order = append(r.order[:i:i], r.order[i+1:]...)
			break
		}
	}
	return nil
}

// Len returns the number of procedures.
func (r *Repository) Len() int { return len(r.procs) }

// IDs returns all procedure IDs in insertion order.
func (r *Repository) IDs() []string { return append([]string(nil), r.order...) }

// CandidatesFor returns the procedures whose classifying DSC satisfies the
// required DSC (exact match or specialisation), sorted by ID for
// determinism.
func (r *Repository) CandidatesFor(required string) []*Procedure {
	var out []*Procedure
	for _, id := range r.order {
		p := r.procs[id]
		if r.taxonomy.Satisfies(p.ClassifiedBy, required) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByDomain returns the procedures belonging to a domain, ordered by ID.
func (r *Repository) ByDomain(domain string) []*Procedure {
	var out []*Procedure
	for _, id := range r.order {
		if p := r.procs[id]; p.Domain == domain {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
