package main

import (
	"fmt"
	"math/rand"

	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/record"
)

// workload is one named benchmark input: a generated graph, the memory
// budget M the engine runs under, and whether it is served or run as a batch.
type workload struct {
	name   string
	web    bool // web-like graph (graphgen.WebGraphParams), else Table I Large-SCC
	nodes  int
	degree int
	memory int64
	serve  bool
	// inputs is how many graphs a batch run cycles through.  The
	// semi-external solver's scan count varies from graph to graph, so
	// averaging over several keeps one run's figures steady across seeds.
	inputs int
}

// contractWebNodes sets the contract-web size; its M gives a node capacity of
// 0.8|V|, so Ext-SCC-Op contracts for a few iterations.
const contractWebNodes = 12_000

var workloads = []workload{
	{name: "contract-web", web: true, nodes: contractWebNodes, degree: 12, inputs: 1,
		memory: contractWebNodes*8/10*iomodel.BytesPerNode + iomodel.DefaultBlockSize},
	{name: "semi-large", nodes: 200_000, degree: 4, memory: 4 << 20, inputs: 3},
	{name: "serve-zipf", nodes: 100_000, degree: 4, memory: 4 << 20, inputs: 1, serve: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// generator is the graphgen parameter set of one workload and seed.
type generator interface {
	WriteTo(path string, cfg iomodel.Config) (int64, error)
	Generate() ([]record.Edge, error)
	AllNodes() []record.NodeID
}

func (w workload) generator(seed int64) generator {
	if w.web {
		p := graphgen.DefaultWebGraphParams()
		p.NumNodes, p.AvgDegree, p.Seed = w.nodes, w.degree, seed
		return p
	}
	p := graphgen.LargeSCCParams(1000)
	p.NumNodes, p.AvgDegree, p.Seed = w.nodes, w.degree, seed
	return p
}

// oracle is the in-memory answer key of one generated graph: Tarjan's SCC
// partition and the condensation DAG for reachability.
type oracle struct {
	label []uint32 // node id -> smallest member id of its SCC
	comp  []int32  // node id -> component index
	// Condensation DAG over component indices in CSR form.
	off, succ []int32
	reach     map[int32][]uint64 // memoised reachable-component bitsets
	numSCCs   int
}

// newOracle solves the graph in memory; withReach also prepares reachability.
func newOracle(edges []record.Edge, nodes []record.NodeID, withReach bool) *oracle {
	g := memgraph.FromEdges(edges, nodes)
	res := g.Tarjan()
	o := &oracle{label: make([]uint32, len(nodes)), numSCCs: res.Count}
	for _, l := range res.Labels() {
		o.label[l.Node] = l.SCC
	}
	if !withReach {
		return o
	}
	o.comp = make([]int32, len(nodes))
	o.reach = map[int32][]uint64{}
	for _, n := range nodes {
		o.comp[n] = int32(res.ComponentOf(n))
	}
	cond := g.CondensationEdges(res) // sorted by source component
	o.off = make([]int32, res.Count+1)
	o.succ = make([]int32, len(cond))
	for i, e := range cond {
		o.off[e.U+1]++
		o.succ[i] = int32(e.V)
	}
	for i := 1; i < len(o.off); i++ {
		o.off[i] += o.off[i-1]
	}
	return o
}

// reaches reports whether u reaches v in the graph.
func (o *oracle) reaches(u, v record.NodeID) bool {
	cu, cv := o.comp[u], o.comp[v]
	if cu == cv {
		return true
	}
	bits, ok := o.reach[cu]
	if !ok {
		bits = make([]uint64, (len(o.off)+63)/64)
		stack := []int32{cu}
		bits[cu/64] |= 1 << (cu % 64)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range o.succ[o.off[c]:o.off[c+1]] {
				if bits[s/64]&(1<<(s%64)) == 0 {
					bits[s/64] |= 1 << (s % 64)
					stack = append(stack, s)
				}
			}
		}
		o.reach[cu] = bits
	}
	return bits[cv/64]&(1<<(cv%64)) != 0
}

// partition checks an SCC labelling against the oracle's: labels may name a
// component by any member, but the grouping must be the same, so the
// engine-label -> oracle-label correspondence must be a bijection.
type partition struct {
	want     []uint32
	fwd, rev []uint32 // engine label -> oracle label, and back
}

const unset = ^uint32(0)

func newPartition(want []uint32) *partition {
	p := &partition{want: want, fwd: make([]uint32, len(want)), rev: make([]uint32, len(want))}
	p.reset()
	return p
}

func (p *partition) reset() {
	for i := range p.fwd {
		p.fwd[i], p.rev[i] = unset, unset
	}
}

// add records node's engine label and reports whether it is consistent with
// every label added since the last reset.
func (p *partition) add(node, got uint32) bool {
	if int(node) >= len(p.want) || int(got) >= len(p.fwd) {
		return false
	}
	want := p.want[node]
	switch {
	case p.fwd[got] == unset && p.rev[want] == unset:
		p.fwd[got], p.rev[want] = want, got
		return true
	default:
		return p.fwd[got] == want && p.rev[want] == got
	}
}

// query is one point query: an SCC lookup, a same-SCC test or a
// reachability test.
type query struct {
	kind byte // 's' /scc, 'm' /same, 'r' /reach
	u, v record.NodeID
}

// zipfKeys draws node keys with Zipf(s=1.1) popularity; a seeded permutation
// spreads the popular ranks over the id space.
type zipfKeys struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newZipfKeys(seed int64, n int) *zipfKeys {
	rng := rand.New(rand.NewSource(seed))
	return &zipfKeys{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (z *zipfKeys) key() record.NodeID { return record.NodeID(z.perm[z.zipf.Uint64()]) }

// next draws one query of the serve mix: 50% /scc, 25% /same, 25% /reach.
func (z *zipfKeys) next() query {
	q := query{u: z.key(), v: z.key()}
	switch r := z.rng.Intn(4); {
	case r < 2:
		q.kind = 's'
	case r == 2:
		q.kind = 'm'
	default:
		q.kind = 'r'
	}
	return q
}
