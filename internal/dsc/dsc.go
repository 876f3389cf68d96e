// Package dsc implements Domain-Specific Classifiers (paper §V-B): a
// hierarchical taxonomy that categorises the operations and data of an
// application domain. DSCs act as interfaces with implicit domain
// constraints — procedures are classified by a DSC and may declare
// dependencies on DSCs, and the intent-model generator matches the two.
package dsc

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Category distinguishes what a classifier describes.
type Category int

// Classifier categories. Operation classifiers categorise domain operations
// by goal; Data classifiers name the data those operations concern (the
// paper: "with the purpose of being able to refer to these data as opposed
// to categorizing them").
const (
	Operation Category = iota + 1
	Data
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Operation:
		return "operation"
	case Data:
		return "data"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// DSC is one classifier in a domain taxonomy.
type DSC struct {
	// ID is the unique identifier, conventionally dotted
	// ("comm.session.establish").
	ID string
	// Name is the human-readable label.
	Name string
	// Domain names the application domain the classifier belongs to.
	Domain string
	// Category tells whether this classifies operations or names data.
	Category Category
	// Parent is the ID of the broader classifier, or "" for a root.
	Parent string
	// Description documents the business rule the classifier captures.
	Description string
}

// Taxonomy is a validated set of classifiers for one or more domains.
type Taxonomy struct {
	dscs   map[string]*DSC
	sealed atomic.Bool
}

// NewTaxonomy returns an empty taxonomy.
func NewTaxonomy() *Taxonomy {
	return &Taxonomy{dscs: make(map[string]*DSC)}
}

// Add registers a classifier. It returns an error on duplicate or empty
// IDs, and on a sealed taxonomy.
func (t *Taxonomy) Add(d *DSC) error {
	if t.sealed.Load() {
		return fmt.Errorf("dsc %q: taxonomy is sealed", d.ID)
	}
	if d.ID == "" {
		return fmt.Errorf("dsc with empty ID")
	}
	if _, ok := t.dscs[d.ID]; ok {
		return fmt.Errorf("duplicate dsc %q", d.ID)
	}
	t.dscs[d.ID] = d
	return nil
}

// MustAdd is Add that panics on error, for static DSK construction.
func (t *Taxonomy) MustAdd(d *DSC) *DSC {
	if err := t.Add(d); err != nil {
		panic(err)
	}
	return d
}

// Seal makes the taxonomy read-only: every later Add fails. A taxonomy
// is sealed once it is shared by the platforms of a domain, which read it
// concurrently.
func (t *Taxonomy) Seal() { t.sealed.Store(true) }

// Get returns the classifier with the given ID, or nil.
func (t *Taxonomy) Get(id string) *DSC { return t.dscs[id] }

// Len returns the number of classifiers.
func (t *Taxonomy) Len() int { return len(t.dscs) }

// IDs returns all classifier IDs sorted.
func (t *Taxonomy) IDs() []string {
	ids := make([]string, 0, len(t.dscs))
	for id := range t.dscs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ByCategory returns the classifiers with the given category, ordered by ID.
func (t *Taxonomy) ByCategory(c Category) []*DSC {
	var out []*DSC
	for _, id := range t.IDs() {
		if d := t.dscs[id]; d.Category == c {
			out = append(out, d)
		}
	}
	return out
}

// ByDomain returns the classifiers belonging to a domain, ordered by ID.
func (t *Taxonomy) ByDomain(domain string) []*DSC {
	var out []*DSC
	for _, id := range t.IDs() {
		if d := t.dscs[id]; d.Domain == domain {
			out = append(out, d)
		}
	}
	return out
}

// Validate checks parent resolution, hierarchy acyclicity, and that a child
// has the same category and domain as its parent.
func (t *Taxonomy) Validate() error {
	for _, id := range t.IDs() {
		d := t.dscs[id]
		if d.Parent == "" {
			continue
		}
		p := t.dscs[d.Parent]
		if p == nil {
			return fmt.Errorf("dsc %s: unknown parent %q", id, d.Parent)
		}
		if p.Category != d.Category {
			return fmt.Errorf("dsc %s: category %s differs from parent %s category %s",
				id, d.Category, p.ID, p.Category)
		}
		if p.Domain != d.Domain {
			return fmt.Errorf("dsc %s: domain %q differs from parent %s domain %q",
				id, d.Domain, p.ID, p.Domain)
		}
		// Cycle check by walking up with a visited set.
		seen := map[string]bool{id: true}
		for cur := d.Parent; cur != ""; {
			if seen[cur] {
				return fmt.Errorf("dsc %s: hierarchy cycle via %q", id, cur)
			}
			seen[cur] = true
			next := t.dscs[cur]
			if next == nil {
				break
			}
			cur = next.Parent
		}
	}
	return nil
}

// Subsumes reports whether ancestor equals descendant or is one of its
// transitive parents. Unknown IDs never subsume anything.
func (t *Taxonomy) Subsumes(ancestor, descendant string) bool {
	if t.dscs[ancestor] == nil {
		return false
	}
	seen := make(map[string]bool)
	for cur := descendant; cur != ""; {
		if cur == ancestor {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		d := t.dscs[cur]
		if d == nil {
			return false
		}
		cur = d.Parent
	}
	return false
}

// Satisfies reports whether a procedure classified by provided can stand in
// for a dependency on required: the provided classifier must be required
// itself or a specialisation of it.
func (t *Taxonomy) Satisfies(provided, required string) bool {
	return t.Subsumes(required, provided)
}

// Depth returns the number of ancestors above the classifier (roots have
// depth 0). Unknown IDs return -1.
func (t *Taxonomy) Depth(id string) int {
	d := t.dscs[id]
	if d == nil {
		return -1
	}
	depth := 0
	seen := make(map[string]bool)
	for cur := d.Parent; cur != ""; {
		if seen[cur] {
			return -1
		}
		seen[cur] = true
		p := t.dscs[cur]
		if p == nil {
			break
		}
		depth++
		cur = p.Parent
	}
	return depth
}

// Children returns the direct children of a classifier, ordered by ID.
func (t *Taxonomy) Children(id string) []*DSC {
	var out []*DSC
	for _, cid := range t.IDs() {
		if t.dscs[cid].Parent == id {
			out = append(out, t.dscs[cid])
		}
	}
	return out
}
