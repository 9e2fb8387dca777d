package instio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

// WriteGraph writes g in the plain-text format:
//
//	n <vertices>
//	d <vertex> <demand>      (omitted when demand is 0)
//	e <u> <v> <weight>
//
// Lines starting with '#' are comments.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "n %d\n", g.N())
	for v := 0; v < g.N(); v++ {
		if d := g.Demand(v); d != 0 {
			fmt.Fprintf(bw, "d %d %g\n", v, d)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d %g\n", e.U, e.V, e.Weight)
	}
	return bw.Flush()
}

// ReadGraph parses the plain-text format written by WriteGraph.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var g *graph.Graph // the vertices and demands; edges gather in es
	var es []graph.Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if len(fields) != 2 {
				return nil, fmt.Errorf("instio: line %d: n needs one argument", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("instio: line %d: bad vertex count %q", line, fields[1])
			}
			g, es = graph.New(n), nil
		case "d":
			if g == nil {
				return nil, fmt.Errorf("instio: line %d: 'd' before 'n'", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("instio: line %d: d needs two arguments", line)
			}
			v, err1 := strconv.Atoi(fields[1])
			d, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil || v < 0 || v >= g.N() {
				return nil, fmt.Errorf("instio: line %d: bad demand line", line)
			}
			g.SetDemand(v, d)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("instio: line %d: 'e' before 'n'", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("instio: line %d: e needs three arguments", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("instio: line %d: bad edge line", line)
			}
			if u < 0 || u >= g.N() || v < 0 || v >= g.N() || u == v || w < 0 {
				return nil, fmt.Errorf("instio: line %d: invalid edge %d-%d (%v)", line, u, v, w)
			}
			es = append(es, graph.Edge{U: u, V: v, Weight: w})
		default:
			return nil, fmt.Errorf("instio: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("instio: missing 'n' line")
	}
	return withEdges(g, es), nil
}

// withEdges returns a graph with g's vertices and demands and the edges
// es, built by graph.FromEdges: AddEdge per edge scans a neighbour list,
// which is quadratic on dense inputs.
func withEdges(g *graph.Graph, es []graph.Edge) *graph.Graph {
	out := graph.FromEdges(g.N(), es)
	for v := 0; v < g.N(); v++ {
		out.SetDemand(v, g.Demand(v))
	}
	return out
}

// WriteMETIS writes g in a METIS-like adjacency format with vertex and
// edge weights (header flag 011). Unlike strict METIS, weights may be
// fractional. Vertex IDs are 1-based in the file.
func WriteMETIS(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d 011\n", g.N(), g.M())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(bw, "%g", g.Demand(v))
		for _, u := range g.SortedNeighbors(v) {
			fmt.Fprintf(bw, " %d %g", u+1, g.Weight(v, u))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadMETIS parses the format written by WriteMETIS (header flags 011,
// 001, or 0/none; fractional weights permitted).
func ReadMETIS(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("instio: empty METIS file")
	}
	header := strings.Fields(strings.TrimSpace(sc.Text()))
	if len(header) < 2 {
		return nil, fmt.Errorf("instio: bad METIS header %q", sc.Text())
	}
	n, err := strconv.Atoi(header[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("instio: bad vertex count %q", header[0])
	}
	flags := "000"
	if len(header) >= 3 {
		flags = header[2]
	}
	hasVW := len(flags) >= 2 && flags[len(flags)-2] == '1'
	hasEW := flags[len(flags)-1] == '1'

	g := graph.New(n) // the vertices and demands; edges gather in es
	var es []graph.Edge
	for v := 0; v < n; v++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("instio: METIS file truncated at vertex %d", v+1)
		}
		fields := strings.Fields(strings.TrimSpace(sc.Text()))
		i := 0
		if hasVW {
			if len(fields) == 0 {
				return nil, fmt.Errorf("instio: vertex %d: missing weight", v+1)
			}
			d, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return nil, fmt.Errorf("instio: vertex %d: bad weight %q", v+1, fields[0])
			}
			g.SetDemand(v, d)
			i = 1
		}
		for i < len(fields) {
			u, err := strconv.Atoi(fields[i])
			if err != nil || u < 1 || u > n {
				return nil, fmt.Errorf("instio: vertex %d: bad neighbor %q", v+1, fields[i])
			}
			i++
			w := 1.0
			if hasEW {
				if i >= len(fields) {
					return nil, fmt.Errorf("instio: vertex %d: missing edge weight", v+1)
				}
				w, err = strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("instio: vertex %d: bad edge weight %q", v+1, fields[i])
				}
				i++
			}
			if u-1 > v { // add each undirected edge once
				es = append(es, graph.Edge{U: v, V: u - 1, Weight: w})
			}
		}
	}
	return withEdges(g, es), sc.Err()
}

// HierarchySpec is the JSON form of a hierarchy.
type HierarchySpec struct {
	Deg []int     `json:"deg"`
	CM  []float64 `json:"cm"`
}

// Instance bundles a graph and a hierarchy in one JSON document.
type Instance struct {
	Hierarchy HierarchySpec `json:"hierarchy"`
	N         int           `json:"n"`
	Demands   []float64     `json:"demands"`
	Edges     [][3]float64  `json:"edges"` // [u, v, w]
}

// WriteInstance writes the instance JSON for (g, h).
func WriteInstance(w io.Writer, g *graph.Graph, h *hierarchy.Hierarchy) error {
	inst := Instance{N: g.N()}
	for j := 0; j < h.Height(); j++ {
		inst.Hierarchy.Deg = append(inst.Hierarchy.Deg, h.Deg(j))
	}
	for j := 0; j <= h.Height(); j++ {
		inst.Hierarchy.CM = append(inst.Hierarchy.CM, h.CM(j))
	}
	for v := 0; v < g.N(); v++ {
		inst.Demands = append(inst.Demands, g.Demand(v))
	}
	for _, e := range g.Edges() {
		inst.Edges = append(inst.Edges, [3]float64{float64(e.U), float64(e.V), e.Weight})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(inst)
}

// ReadInstance parses the instance JSON.
func ReadInstance(r io.Reader) (*graph.Graph, *hierarchy.Hierarchy, error) {
	var inst Instance
	if err := json.NewDecoder(r).Decode(&inst); err != nil {
		return nil, nil, fmt.Errorf("instio: %w", err)
	}
	return inst.Materialize()
}

// Materialize validates the decoded instance and constructs its graph
// and hierarchy — the shared path behind ReadInstance and callers that
// embed an Instance inside a larger JSON document (the hgpd request
// body).
func (inst Instance) Materialize() (*graph.Graph, *hierarchy.Hierarchy, error) {
	h, err := hierarchy.New(inst.Hierarchy.Deg, inst.Hierarchy.CM)
	if err != nil {
		return nil, nil, err
	}
	if inst.N < 0 || len(inst.Demands) > inst.N {
		return nil, nil, fmt.Errorf("instio: inconsistent instance sizes")
	}
	for v, d := range inst.Demands {
		if d < 0 {
			return nil, nil, fmt.Errorf("instio: negative demand at vertex %d", v)
		}
	}
	es := make([]graph.Edge, len(inst.Edges))
	for i, e := range inst.Edges {
		u, v, w := int(e[0]), int(e[1]), e[2]
		if u < 0 || u >= inst.N || v < 0 || v >= inst.N || u == v || w < 0 {
			return nil, nil, fmt.Errorf("instio: bad edge #%d: %v", i, e)
		}
		es[i] = graph.Edge{U: u, V: v, Weight: w}
	}
	g := graph.FromEdges(inst.N, es)
	for v, d := range inst.Demands {
		g.SetDemand(v, d)
	}
	return g, h, nil
}

// WriteAssignment writes a placement as JSON: {"assignment": [...leaf per
// vertex], "cost": c}.
func WriteAssignment(w io.Writer, a metrics.Assignment, cost float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Assignment []int   `json:"assignment"`
		Cost       float64 `json:"cost"`
	}{Assignment: a, Cost: cost})
}
