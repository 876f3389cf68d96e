package api

import (
	"fmt"
	"net/http"

	"github.com/mddsm/mddsm/internal/metamodel"
)

// objectDoc is the wire form of one model object, the same shape the
// model JSON codec uses.
type objectDoc struct {
	ID    string              `json:"id"`
	Class string              `json:"class,omitempty"`
	Attrs map[string]any      `json:"attrs,omitempty"`
	Refs  map[string][]string `json:"refs,omitempty"`
}

func marshalObject(o *metamodel.Object) objectDoc {
	doc := objectDoc{ID: o.ID, Class: o.Class}
	if names := o.AttrNames(); len(names) > 0 {
		doc.Attrs = make(map[string]any, len(names))
		for _, n := range names {
			v, _ := o.Attr(n)
			doc.Attrs[n] = v
		}
	}
	if names := o.RefNames(); len(names) > 0 {
		doc.Refs = make(map[string][]string, len(names))
		for _, n := range names {
			doc.Refs[n] = o.Refs(n)
		}
	}
	return doc
}

// model resolves {tenant}/{model}, rehydrating a parked tenant, and
// rejects paths naming a model the tenant does not serve. The returned
// model is a caller-owned copy — handlers mutate it freely.
func (s *Server) model(w http.ResponseWriter, r *http.Request, tenant string) (*metamodel.Model, *metamodel.Metamodel, bool) {
	m, mm, err := s.serve.Model(tenant)
	if err != nil {
		serveProblem(w, err)
		return nil, nil, false
	}
	return m, mm, servesModel(w, r, tenant, mm)
}

// servesModel reports whether the path's {model} is the one the tenant
// serves, answering 404 when it is not.
func servesModel(w http.ResponseWriter, r *http.Request, tenant string, mm *metamodel.Metamodel) bool {
	if name := r.PathValue("model"); name != mm.Name {
		writeProblem(w, http.StatusNotFound, "unknown model",
			fmt.Sprintf("tenant %q serves model %q, not %q", tenant, mm.Name, name), []string{mm.Name})
		return false
	}
	return true
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request, tenant string) {
	m, _, ok := s.model(w, r, tenant)
	if !ok {
		return
	}
	data, err := metamodel.MarshalModel(m)
	if err != nil {
		writeProblem(w, http.StatusInternalServerError, "encode failed", err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleClasses renders the provisioning schema: every class of the
// tenant's DSML with its effective (inheritance-flattened) features and
// the collection URL the class is served under. This is the "API for
// free" contract — the routes are a function of the metamodel alone.
func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request, tenant string) {
	_, mm, ok := s.model(w, r, tenant)
	if !ok {
		return
	}
	type attrDoc struct {
		Name     string `json:"name"`
		Kind     string `json:"kind"`
		EnumType string `json:"enumType,omitempty"`
		Required bool   `json:"required,omitempty"`
		Default  any    `json:"default,omitempty"`
	}
	type refDoc struct {
		Name        string `json:"name"`
		Target      string `json:"target"`
		Containment bool   `json:"containment,omitempty"`
		Many        bool   `json:"many,omitempty"`
		Required    bool   `json:"required,omitempty"`
	}
	type classDoc struct {
		Name       string    `json:"name"`
		Abstract   bool      `json:"abstract,omitempty"`
		Super      string    `json:"super,omitempty"`
		Attributes []attrDoc `json:"attributes,omitempty"`
		References []refDoc  `json:"references,omitempty"`
		Collection string    `json:"collection"`
	}
	var classes []classDoc
	for _, name := range mm.ClassNames() {
		c := mm.Class(name)
		doc := classDoc{
			Name: name, Abstract: c.Abstract, Super: c.Super,
			Collection: "/tenants/" + tenant + "/models/" + mm.Name + "/classes/" + name + "/objects",
		}
		for _, a := range mm.AllAttributes(name) {
			doc.Attributes = append(doc.Attributes, attrDoc{
				Name: a.Name, Kind: a.Kind.String(), EnumType: a.EnumType,
				Required: a.Required, Default: a.Default,
			})
		}
		for _, ref := range mm.AllReferences(name) {
			doc.References = append(doc.References, refDoc{
				Name: ref.Name, Target: ref.Target, Containment: ref.Containment,
				Many: ref.Many, Required: ref.Required,
			})
		}
		classes = append(classes, doc)
	}
	writeJSON(w, http.StatusOK, map[string]any{"metamodel": mm.Name, "classes": classes})
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request, tenant string) {
	m, _, ok := s.model(w, r, tenant)
	if !ok {
		return
	}
	docs := make([]objectDoc, 0, m.Len())
	for _, o := range m.Objects() {
		docs = append(docs, marshalObject(o))
	}
	writeJSON(w, http.StatusOK, map[string]any{"objects": docs, "count": len(docs)})
}

func (s *Server) handleClassObjects(w http.ResponseWriter, r *http.Request, tenant string) {
	m, mm, ok := s.model(w, r, tenant)
	if !ok {
		return
	}
	class := r.PathValue("class")
	if mm.Class(class) == nil {
		writeProblem(w, http.StatusNotFound, "unknown class",
			fmt.Sprintf("metamodel %q has no class %q", mm.Name, class), mm.ClassNames())
		return
	}
	objs := m.ObjectsKindOf(mm, class)
	docs := make([]objectDoc, 0, len(objs))
	for _, o := range objs {
		docs = append(docs, marshalObject(o))
	}
	writeJSON(w, http.StatusOK, map[string]any{"class": class, "objects": docs, "count": len(docs)})
}

func (s *Server) handleGetObject(w http.ResponseWriter, r *http.Request, tenant string) {
	s.writeObject(w, r, tenant, r.PathValue("id"), http.StatusOK)
}

// writeObject answers with one object of the tenant's committed model,
// read as a copy of that object alone (not of the model), or with 404
// when the model has no such object.
func (s *Server) writeObject(w http.ResponseWriter, r *http.Request, tenant, id string, status int) {
	o, mm, err := s.serve.Object(tenant, id)
	if err != nil {
		serveProblem(w, err)
		return
	}
	if !servesModel(w, r, tenant, mm) {
		return
	}
	if o == nil {
		writeProblem(w, http.StatusNotFound, "no such object",
			fmt.Sprintf("model has no object %q", id), nil)
		return
	}
	writeJSON(w, status, marshalObject(o))
}

// mutate runs one REST write: read the committed model, let fn edit the
// copy, submit the candidate through the models@runtime loop (validate →
// diff → interpret → commit), then answer through respond. A validation
// refusal surfaces as 422 with the validator's problem list; fn returning
// false means it already wrote a problem response.
func (s *Server) mutate(w http.ResponseWriter, r *http.Request, tenant string,
	fn func(next *metamodel.Model, mm *metamodel.Metamodel) bool,
	respond func()) {
	lk := s.writeLock(tenant)
	lk.Lock()
	defer lk.Unlock()
	next, mm, ok := s.model(w, r, tenant)
	if !ok {
		return
	}
	if !fn(next, mm) {
		return
	}
	if _, err := s.serve.SubmitModel(tenant, next); err != nil {
		s.mWritesRejected.Inc()
		submitProblem(w, err)
		return
	}
	s.mWrites.Inc()
	respond()
}

// applyPut edits next per PUT semantics: the object ends up with exactly
// the attributes and references of the document. Replacement edits in
// place so the synthesis layer sees minimal attribute-level deltas, not
// remove+add churn; changing the class is a true replacement. Returns
// whether the object was created, or a Problem describing the refusal.
func applyPut(next *metamodel.Model, mm *metamodel.Metamodel, id string, doc objectDoc) (bool, *Problem) {
	created := false
	o := next.Get(id)
	switch {
	case o == nil:
		if doc.Class == "" {
			return false, &Problem{Status: http.StatusBadRequest, Title: "missing class",
				Detail: "creating an object requires a class", Problems: mm.ClassNames()}
		}
		o = next.NewObject(id, doc.Class)
		created = true
	case doc.Class != "" && doc.Class != o.Class:
		next.Delete(id)
		o = next.NewObject(id, doc.Class)
	}
	for _, name := range o.AttrNames() {
		if _, keep := doc.Attrs[name]; !keep {
			o.UnsetAttr(name)
		}
	}
	for k, v := range doc.Attrs {
		o.SetAttr(k, v)
	}
	for _, name := range o.RefNames() {
		if _, keep := doc.Refs[name]; !keep {
			o.SetRef(name)
		}
	}
	for k, targets := range doc.Refs {
		o.SetRef(k, targets...)
	}
	return created, nil
}

// applyPatch edits next per PATCH semantics: attributes present are set,
// attributes bound to JSON null are unset, reference lists are replaced
// per name (null or [] clears). The object must exist and keep its class.
func applyPatch(next *metamodel.Model, id string, doc objectDoc) *Problem {
	o := next.Get(id)
	if o == nil {
		return &Problem{Status: http.StatusNotFound, Title: "no such object",
			Detail: fmt.Sprintf("model has no object %q; use PUT to create", id)}
	}
	if doc.Class != "" && doc.Class != o.Class {
		return &Problem{Status: http.StatusConflict, Title: "cannot reclassify",
			Detail: fmt.Sprintf("object %q is a %s; PATCH cannot change the class, use PUT", id, o.Class)}
	}
	for k, v := range doc.Attrs {
		if v == nil {
			o.UnsetAttr(k)
		} else {
			o.SetAttr(k, v)
		}
	}
	for k, targets := range doc.Refs {
		o.SetRef(k, targets...)
	}
	return nil
}

// applyDelete removes one object and strips references pointing at it
// (the editor idiom), so the delete fails validation only when the model
// genuinely cannot conform without the object — e.g. a required
// reference left unsatisfiable.
func applyDelete(next *metamodel.Model, id string) *Problem {
	if next.Get(id) == nil {
		return &Problem{Status: http.StatusNotFound, Title: "no such object",
			Detail: fmt.Sprintf("model has no object %q", id)}
	}
	next.Delete(id)
	for _, o := range next.Objects() {
		for _, ref := range o.RefNames() {
			o.RemoveRef(ref, id)
		}
	}
	return nil
}

func writeProblemDoc(w http.ResponseWriter, p *Problem) {
	writeProblem(w, p.Status, p.Title, p.Detail, p.Problems)
}

func (s *Server) handlePutObject(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	var doc objectDoc
	if !decodeBody(w, r, &doc) {
		return
	}
	if doc.ID != "" && doc.ID != id {
		writeProblem(w, http.StatusBadRequest, "id mismatch",
			fmt.Sprintf("document id %q does not match URL id %q", doc.ID, id), nil)
		return
	}
	created := false
	s.mutate(w, r, tenant, func(next *metamodel.Model, mm *metamodel.Metamodel) bool {
		var p *Problem
		created, p = applyPut(next, mm, id, doc)
		if p != nil {
			writeProblemDoc(w, p)
			return false
		}
		return true
	}, func() {
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		s.writeObject(w, r, tenant, id, status) // as committed: normalised, defaults applied
	})
}

func (s *Server) handlePatchObject(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	var doc objectDoc
	if !decodeBody(w, r, &doc) {
		return
	}
	if doc.ID != "" && doc.ID != id {
		writeProblem(w, http.StatusBadRequest, "id mismatch",
			fmt.Sprintf("document id %q does not match URL id %q", doc.ID, id), nil)
		return
	}
	s.mutate(w, r, tenant, func(next *metamodel.Model, mm *metamodel.Metamodel) bool {
		if p := applyPatch(next, id, doc); p != nil {
			writeProblemDoc(w, p)
			return false
		}
		return true
	}, func() {
		s.writeObject(w, r, tenant, id, http.StatusOK)
	})
}

func (s *Server) handleDeleteObject(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	s.mutate(w, r, tenant, func(next *metamodel.Model, mm *metamodel.Metamodel) bool {
		if p := applyDelete(next, id); p != nil {
			writeProblemDoc(w, p)
			return false
		}
		return true
	}, func() {
		w.WriteHeader(http.StatusNoContent)
	})
}
