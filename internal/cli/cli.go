// Package cli holds the input-parsing helpers of the internal
// command-line harness cmd/ghdtool: the ';'/','-separated query
// hypergraph syntax and the kind:size topology syntax. Parsers
// return errors — never panic — so commands can print a usage message and
// exit nonzero on malformed input. (cmd/faqrun is a client of the public
// faqs façade and carries its own copy of this tiny grammar; keep the
// two in sync when the syntax changes.)
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hypergraph"
	"repro/internal/topology"
)

// ParseQuery parses a query hypergraph given as ';'-separated hyperedges,
// each a ','-separated list of vertex names:
//
//	A,B;A,C;A,D
//
// Whitespace around names is ignored; empty hyperedges and an empty spec
// are errors.
func ParseQuery(spec string) (*hypergraph.Hypergraph, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty query (want e.g. 'A,B;A,C')")
	}
	b := hypergraph.NewBuilder()
	for _, edge := range strings.Split(spec, ";") {
		var names []string
		for _, v := range strings.Split(edge, ",") {
			if v = strings.TrimSpace(v); v != "" {
				names = append(names, v)
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("empty hyperedge in query %q", spec)
		}
		b.Edge(names...)
	}
	return b.Build(), nil
}

// ParseTopology parses a network topology spec of the form kind:size:
//
//	line:4 | clique:5 | star:6 | ring:8 | grid:3x4
//
// Sizes must be positive (grid: both dimensions).
func ParseTopology(spec string) (*topology.Graph, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("topology %q must be kind:size (line:4 | clique:5 | star:6 | ring:8 | grid:3x4)", spec)
	}
	kind, size := parts[0], parts[1]
	if kind == "grid" {
		dims := strings.SplitN(size, "x", 2)
		if len(dims) != 2 {
			return nil, fmt.Errorf("grid size %q must be RxC", size)
		}
		rows, err := strconv.Atoi(dims[0])
		if err != nil {
			return nil, fmt.Errorf("grid rows %q: %v", dims[0], err)
		}
		cols, err := strconv.Atoi(dims[1])
		if err != nil {
			return nil, fmt.Errorf("grid cols %q: %v", dims[1], err)
		}
		if rows < 1 || cols < 1 {
			return nil, fmt.Errorf("grid %dx%d: both dimensions must be positive", rows, cols)
		}
		return topology.Grid(rows, cols), nil
	}
	k, err := strconv.Atoi(size)
	if err != nil {
		return nil, fmt.Errorf("topology size %q: %v", size, err)
	}
	if k < 1 {
		return nil, fmt.Errorf("topology size %d must be positive", k)
	}
	switch kind {
	case "line":
		return topology.Line(k), nil
	case "clique":
		return topology.Clique(k), nil
	case "star":
		return topology.Star(k), nil
	case "ring":
		return topology.Ring(k), nil
	}
	return nil, fmt.Errorf("unknown topology kind %q (have line, clique, star, ring, grid)", kind)
}
