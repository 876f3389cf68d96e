// Incremental (delta) conformance validation: instead of re-walking the
// whole runtime model on every submission, a DeltaValidator keeps the
// previously validated model as its base, together with two O(model)
// indexes built once (an inbound reverse-reference index and the
// containment claim map), and checks a new model by validating only the
// objects a ChangeList touches. The untouched remainder was valid in the
// base and its validity can only be affected through the indexed
// structures:
//
//   - an untouched object's own attributes and references are unchanged, so
//     every per-object check still holds;
//   - its reference targets can only break by a touched object being
//     removed or reclassified — the inbound index names exactly the
//     referrers that must be rechecked;
//   - single containment can only break against a touched object's claims —
//     recomputed claims are merged with the standing claims of untouched
//     owners;
//   - a containment cycle must traverse at least one touched containment
//     edge (the base is acyclic), so walking up from changed edges decides
//     acyclicity.
//
// The verdict is byte-identical to CompiledMetamodel.Validate as a problem
// multiset: when a conflict or cycle is even possible, the validator drops
// to the exact full containment accounting (the model is about to be
// rejected anyway, so that path is not performance-sensitive).
package metamodel

import "sort"

// DeltaValidator validates successive models incrementally against a
// compiled metamodel. It is not safe for concurrent use; the owning layer
// serialises submissions anyway.
//
// Contract: the base model passed to NewDeltaValidator (and each model
// passed to Advance) must be in validated form — normalised values,
// defaults applied, no problems. Validate's changes must be the normalised
// change list from base to next (NormalizeChanges of a raw diff, or a diff
// between validated models), and next must equal base with those changes
// applied; untouched objects must be unmodified.
type DeltaValidator struct {
	cm   *CompiledMetamodel
	base *Model
	// inbound counts reference edges onto each target: target ID →
	// referrer ID → number of distinct references of that referrer holding
	// the target.
	inbound map[string]map[string]int
	// claims maps each contained object to its container; claimN counts
	// the parallel containment edges behind the claim (the same owner may
	// contain the same target through two references).
	claims map[string]string
	claimN map[string]int
	// ownerClaims inverts claims for the slow containment rebuild.
	ownerClaims map[string][]string
}

// NewDeltaValidator indexes a validated base model. The validator keeps a
// reference to base; the caller must not mutate it except through Advance.
func NewDeltaValidator(cm *CompiledMetamodel, base *Model) *DeltaValidator {
	dv := &DeltaValidator{
		cm:          cm,
		base:        base,
		inbound:     make(map[string]map[string]int),
		claims:      make(map[string]string),
		claimN:      make(map[string]int),
		ownerClaims: make(map[string][]string),
	}
	for _, id := range base.order {
		o := base.objects[id]
		cc := cm.classes[o.Class]
		for name, targets := range o.refs {
			isCont := false
			if cc != nil {
				if idx, ok := cc.refIndex[name]; ok {
					isCont = cc.refs[idx].containment
				}
			}
			var seen map[string]bool
			if len(targets) > 1 {
				seen = make(map[string]bool, len(targets))
			}
			for _, t := range targets {
				if seen != nil {
					if seen[t] {
						continue
					}
					seen[t] = true
				}
				dv.addInbound(t, id)
				if isCont {
					dv.setClaim(t, id)
				}
			}
		}
	}
	return dv
}

// Base returns the model the validator currently considers valid.
func (dv *DeltaValidator) Base() *Model { return dv.base }

func (dv *DeltaValidator) addInbound(target, referrer string) {
	m := dv.inbound[target]
	if m == nil {
		m = make(map[string]int, 1)
		dv.inbound[target] = m
	}
	m[referrer]++
}

func (dv *DeltaValidator) dropInbound(target, referrer string) {
	m := dv.inbound[target]
	if m == nil {
		return
	}
	if m[referrer]--; m[referrer] <= 0 {
		delete(m, referrer)
		if len(m) == 0 {
			delete(dv.inbound, target)
		}
	}
}

func (dv *DeltaValidator) setClaim(target, owner string) {
	if dv.claims[target] == owner {
		dv.claimN[target]++
		return
	}
	// A different-owner overwrite cannot occur on a validated model; this
	// path only installs first claims.
	dv.claims[target] = owner
	dv.claimN[target] = 1
	dv.ownerClaims[owner] = append(dv.ownerClaims[owner], target)
}

func (dv *DeltaValidator) dropClaim(target, owner string) {
	if dv.claims[target] != owner {
		return
	}
	if dv.claimN[target]--; dv.claimN[target] > 0 {
		return
	}
	delete(dv.claims, target)
	delete(dv.claimN, target)
	ts := dv.ownerClaims[owner]
	for i, t := range ts {
		if t == target {
			dv.ownerClaims[owner] = append(ts[:i:i], ts[i+1:]...)
			break
		}
	}
	if len(dv.ownerClaims[owner]) == 0 {
		delete(dv.ownerClaims, owner)
	}
}

// Validate checks next against the compiled metamodel by examining only
// the objects changes touch (plus the untouched referrers of removed or
// re-added objects). It applies the same normalising mutations to touched
// objects that a full validation would, and its verdict — nil or a
// ValidationError — carries the same problem multiset a full
// CompiledMetamodel.Validate of next would report. The validator's own
// state is not modified; call Advance after a nil verdict to move the base
// forward.
func (dv *DeltaValidator) Validate(next *Model, changes ChangeList) error {
	if len(changes) == 0 {
		return nil
	}
	touched := make(map[string]struct{}, len(changes))
	var structural []string
	for _, c := range changes {
		touched[c.ObjectID] = struct{}{}
		if c.Kind == ChangeRemoveObject || c.Kind == ChangeAddObject {
			structural = append(structural, c.ObjectID)
		}
	}
	check := make(map[string]struct{}, len(touched))
	for id := range touched {
		if next.objects[id] != nil {
			check[id] = struct{}{}
		}
	}
	for _, id := range structural {
		for ref := range dv.inbound[id] {
			if _, t := touched[ref]; t {
				continue
			}
			if next.objects[ref] != nil {
				check[ref] = struct{}{}
			}
		}
	}
	checkIDs := make([]string, 0, len(check))
	for id := range check {
		checkIDs = append(checkIDs, id)
	}
	sort.Strings(checkIDs)

	var errs errorList
	overlay := make(map[string][]string)        // target → claiming owners, dedup
	overlayByOwner := make(map[string][]string) // owner → claimed targets, dedup
	for _, id := range checkIDs {
		dv.cm.validateObject(next, id, next.objects[id], &errs, func(target, owner string) {
			for _, prev := range overlay[target] {
				if prev == owner {
					return
				}
			}
			overlay[target] = append(overlay[target], owner)
			overlayByOwner[owner] = append(overlayByOwner[owner], target)
		})
	}

	// Containment: merge the recomputed claims with the standing claims of
	// unchecked owners. More than one effective owner for any target — or
	// a cycle reachable from a changed edge — drops to the full
	// accounting, which reproduces the complete validator's conflict and
	// cycle messages exactly.
	slow := false
	for target, owners := range overlay {
		n := len(owners)
		if baseOwner, ok := dv.claims[target]; ok {
			if _, rechecked := check[baseOwner]; !rechecked {
				n++
			}
		}
		if n > 1 {
			slow = true
			break
		}
	}
	if !slow {
		slow = dv.cycleFromChangedEdges(check, overlay)
	}
	if slow {
		dv.slowContainment(next, check, overlayByOwner, &errs)
	}
	return errs.err()
}

// cycleFromChangedEdges reports whether any containment cycle exists in
// next, assuming no ownership conflicts (every contained object has exactly
// one effective container). The base is acyclic, so any cycle must pass
// through an edge that is new or redirected relative to the base; walking
// up from each such edge visits the whole cycle.
func (dv *DeltaValidator) cycleFromChangedEdges(check map[string]struct{}, overlay map[string][]string) bool {
	effContainer := func(x string) string {
		if owners, ok := overlay[x]; ok {
			return owners[0]
		}
		if owner, ok := dv.claims[x]; ok {
			if _, rechecked := check[owner]; !rechecked {
				return owner
			}
		}
		return ""
	}
	for target, owners := range overlay {
		owner := owners[0]
		if dv.claims[target] == owner {
			continue // edge unchanged from the (acyclic) base
		}
		seen := map[string]bool{target: true}
		for cur := owner; cur != ""; cur = effContainer(cur) {
			if seen[cur] {
				return true
			}
			seen[cur] = true
		}
	}
	return false
}

// slowContainment rebuilds the complete contained → container map the way
// the full validator does — every object in next.order, checked objects
// contributing their recomputed claims, unchecked ones their standing base
// claims — emitting the identical conflict messages inline and running the
// identical cycle walk.
func (dv *DeltaValidator) slowContainment(next *Model, check map[string]struct{}, overlayByOwner map[string][]string, errs *errorList) {
	container := make(map[string]string)
	for _, id := range next.order {
		targets := dv.ownerClaims[id]
		if _, ok := check[id]; ok {
			targets = overlayByOwner[id]
		}
		for _, t := range targets {
			if prev, owned := container[t]; owned && prev != id {
				errs.addf("object %s: contained by both %s and %s", t, prev, id)
			}
			container[t] = id
		}
	}
	containmentCycles(container, errs)
}

// Advance moves the base forward to next, updating the indexes in
// O(changes). Call it only after Validate(next, changes) returned nil.
func (dv *DeltaValidator) Advance(next *Model, changes ChangeList) {
	for _, c := range changes {
		switch c.Kind {
		case ChangeAddRef:
			dv.addInbound(c.Target, c.ObjectID)
			if dv.isContainment(c.Class, c.Feature) {
				dv.setClaim(c.Target, c.ObjectID)
			}
		case ChangeRemoveRef:
			dv.dropInbound(c.Target, c.ObjectID)
			if dv.isContainment(c.Class, c.Feature) {
				dv.dropClaim(c.Target, c.ObjectID)
			}
		case ChangeRemoveObject:
			// Its outgoing edges were dropped by the preceding RemoveRef
			// changes and surviving referrers dropped theirs; clear any
			// residue defensively.
			delete(dv.inbound, c.ObjectID)
			delete(dv.ownerClaims, c.ObjectID)
		}
	}
	dv.base = next
}

func (dv *DeltaValidator) isContainment(class, feature string) bool {
	cc := dv.cm.classes[class]
	if cc == nil {
		return false
	}
	idx, ok := cc.refIndex[feature]
	if !ok {
		return false
	}
	return cc.refs[idx].containment
}

// NormalizeChanges rewrites a raw change list — a DiffWithContainment
// between the validated current model and an UNVALIDATED submission — into
// the change list a validate-then-diff would have produced: attribute
// values are coerced to their canonical representations, changes that
// normalisation turns into no-ops are dropped, unsetting a defaulted
// attribute becomes re-setting the default (or disappears when the default
// already held), and added objects gain the sorted default assignments a
// full validation would have materialised. Changes that cannot be
// normalised (unknown classes or features, uncoercible values) pass
// through untouched so validation of the applied result reports them.
func NormalizeChanges(cm *CompiledMetamodel, base *Model, raw ChangeList) ChangeList {
	out := make(ChangeList, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		switch c.Kind {
		case ChangeAddObject:
			out = append(out, c)
			i++
			run := raw[i:i:i]
			for i < len(raw) && raw[i].Kind == ChangeSetAttr && raw[i].ObjectID == c.ObjectID {
				run = append(run, raw[i])
				i++
			}
			out = appendAddedAttrs(out, cm, c, run)
		case ChangeSetAttr:
			if nc, keep := normalizeSet(cm, c); keep {
				out = append(out, nc)
			}
			i++
		case ChangeUnsetAttr:
			if nc, keep := normalizeUnset(cm, c); keep {
				out = append(out, nc)
			}
			i++
		default:
			out = append(out, c)
			i++
		}
	}
	return out
}

// appendAddedAttrs merges an added object's explicit attribute assignments
// (normalised where possible) with the defaults a full validation would
// apply, sorted by feature name — matching the SetAttr run a diff against
// the validated model emits after the ChangeAddObject.
func appendAddedAttrs(out ChangeList, cm *CompiledMetamodel, add Change, run ChangeList) ChangeList {
	cc := cm.classes[add.Class]
	if cc == nil {
		return append(out, run...)
	}
	merged := make(ChangeList, 0, len(run)+2)
	explicit := make(map[string]struct{}, len(run))
	for _, c := range run {
		explicit[c.Feature] = struct{}{}
		if idx, ok := cc.attrIndex[c.Feature]; ok {
			if nv, err := cc.attrs[idx].norm(c.New); err == nil {
				c.New = nv
			}
		}
		merged = append(merged, c)
	}
	for i := range cc.attrs {
		ca := &cc.attrs[i]
		if ca.def == nil {
			continue
		}
		if _, set := explicit[ca.name]; set {
			continue
		}
		merged = append(merged, Change{
			Kind: ChangeSetAttr, ObjectID: add.ObjectID, Class: add.Class,
			Feature: ca.name, New: ca.def,
		})
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Feature < merged[j].Feature })
	return append(out, merged...)
}

// normalizeSet coerces a surviving object's new attribute value; the change
// is dropped when the canonical value equals the old one (the raw diff only
// saw a difference because of representation).
func normalizeSet(cm *CompiledMetamodel, c Change) (Change, bool) {
	cc := cm.classes[c.Class]
	if cc == nil {
		return c, true
	}
	idx, ok := cc.attrIndex[c.Feature]
	if !ok {
		return c, true
	}
	nv, err := cc.attrs[idx].norm(c.New)
	if err != nil {
		return c, true
	}
	if c.Old != nil && nv == c.Old {
		return c, false
	}
	c.New = nv
	return c, true
}

// normalizeUnset maps unsetting a defaulted attribute to what a full
// validation makes of it: the default re-materialises, so the change is a
// SetAttr back to the default — or nothing, when the default already held.
func normalizeUnset(cm *CompiledMetamodel, c Change) (Change, bool) {
	cc := cm.classes[c.Class]
	if cc == nil {
		return c, true
	}
	idx, ok := cc.attrIndex[c.Feature]
	if !ok {
		return c, true
	}
	def := cc.attrs[idx].def
	if def == nil {
		return c, true
	}
	if c.Old == def {
		return c, false
	}
	return Change{
		Kind: ChangeSetAttr, ObjectID: c.ObjectID, Class: c.Class,
		Feature: c.Feature, Old: c.Old, New: def,
	}, true
}
