package workload

import (
	"strings"
)

// Template is one of the standing benchmark query shapes shared by the
// churn differential harness (internal/delta/churn), the cluster tests,
// and the bench/ harness (the faqs and cmd/faqd tests keep wire-level
// copies of the same shapes). Spec lists hyperedges as ';'-separated ','-joined attribute
// names; Free lists the free variables by name.
type Template struct {
	Name string
	Spec string
	Free []string
}

// Templates returns the standing shapes: an 8-vertex path, a 6-leaf
// star, a depth-2 binary tree, and a triangle with a pendant edge (the
// cyclic shape whose fat core root makes root-bag churn expensive).
func Templates() []Template {
	return []Template{
		{Name: "path7", Spec: "A0,A1;A1,A2;A2,A3;A3,A4;A4,A5;A5,A6;A6,A7", Free: []string{"A0"}},
		{Name: "star6", Spec: "C,B1;C,B2;C,B3;C,B4;C,B5;C,B6", Free: []string{"C"}},
		{Name: "tree6", Spec: "R,L;R,T;L,LL;L,LR;T,TL;T,TR", Free: []string{"R"}},
		{Name: "tri-pendant", Spec: "A,B;B,C;A,C;C,D", Free: []string{"C"}},
	}
}

// TemplateByName looks a standing template up by name.
func TemplateByName(name string) (Template, bool) {
	for _, t := range Templates() {
		if t.Name == name {
			return t, true
		}
	}
	return Template{}, false
}

// Edges parses the Spec into per-edge attribute-name lists.
func (t Template) Edges() [][]string {
	parts := strings.Split(t.Spec, ";")
	out := make([][]string, len(parts))
	for i, p := range parts {
		out[i] = strings.Split(p, ",")
	}
	return out
}
