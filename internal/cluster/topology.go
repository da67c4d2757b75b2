package cluster

import (
	"fmt"
	"slices"
	"sort"

	"mbfaa/internal/prng"
)

// Topology describes the communication graph of a deployment: which peers
// each node exchanges messages with. The paper's deployment (§3) is the
// full mesh; partial topologies (rings, random-regular graphs, arbitrary
// connected graphs) model the partially-connected regimes of Li, Hurfin &
// Wang (2012), where agreement must survive mobile faults without global
// communication.
//
// Topologies are undirected: j ∈ Neighbors(i) iff i ∈ Neighbors(j). A node
// always exchanges its own value with itself in addition to its neighbors,
// so the per-round multiset a node votes on has Degree(id)+1 entries.
type Topology interface {
	// Name identifies the topology family ("mesh", "ring", …) for logs and
	// results.
	Name() string
	// Size returns the node count n.
	Size() int
	// Neighbors returns node id's peers in ascending order, excluding id
	// itself. The returned slice must not be mutated.
	Neighbors(id int) []int
}

// Graph is a concrete Topology backed by adjacency lists. Construct one
// with FullMesh, Ring, RandomRegular or NewGraph.
type Graph struct {
	name string
	adj  [][]int
}

// NewGraph builds a Topology from explicit adjacency lists, validating that
// the graph is simple (no self-loops, no duplicate edges, ids in range) and
// undirected. Connectivity is NOT required here — Validate callers that
// need it check Connected separately.
func NewGraph(name string, adj [][]int) (*Graph, error) {
	n := len(adj)
	if n <= 0 {
		return nil, fmt.Errorf("cluster: empty graph")
	}
	clean := make([][]int, n)
	for i, nbrs := range adj {
		seen := make(map[int]bool, len(nbrs))
		clean[i] = make([]int, 0, len(nbrs))
		for _, j := range nbrs {
			switch {
			case j < 0 || j >= n:
				return nil, fmt.Errorf("cluster: node %d lists neighbor %d out of range [0,%d)", i, j, n)
			case j == i:
				return nil, fmt.Errorf("cluster: node %d lists itself as a neighbor", i)
			case seen[j]:
				return nil, fmt.Errorf("cluster: node %d lists neighbor %d twice", i, j)
			}
			seen[j] = true
			clean[i] = append(clean[i], j)
		}
		sort.Ints(clean[i])
	}
	for i, nbrs := range clean {
		for _, j := range nbrs {
			if !containsSorted(clean[j], i) {
				return nil, fmt.Errorf("cluster: edge %d→%d has no reverse (topologies are undirected)", i, j)
			}
		}
	}
	return &Graph{name: name, adj: clean}, nil
}

// FullMesh returns the complete graph on n nodes — the paper's §3 topology.
func FullMesh(n int) *Graph {
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return &Graph{name: "mesh", adj: adj}
}

// Ring returns the circulant graph on n nodes where every node links to its
// k nearest neighbors on each side (degree 2k), the classic bounded-degree
// topology. Requires 1 ≤ k and 2k < n so the graph is simple and connected.
func Ring(n, k int) (*Graph, error) {
	if k < 1 || 2*k >= n {
		return nil, fmt.Errorf("cluster: ring(n=%d, k=%d) needs 1 ≤ k and 2k < n", n, k)
	}
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = make([]int, 0, 2*k)
		for off := 1; off <= k; off++ {
			adj[i] = append(adj[i], (i+off)%n, (i-off+n)%n)
		}
		sort.Ints(adj[i])
	}
	return &Graph{name: "ring", adj: adj}, nil
}

// RandomRegular returns a connected random d-regular graph on n nodes,
// generated deterministically from seed by the configuration model
// (repeated pairing until the matching is simple and the graph connected).
// Requires d ≥ 2, d < n and n·d even.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d < 2 || d >= n || n*d%2 != 0 {
		return nil, fmt.Errorf("cluster: regular(n=%d, d=%d) needs 2 ≤ d < n and n·d even", n, d)
	}
	rng := prng.New(seed)
	// Configuration model with per-pair repair: each step matches the
	// first remaining stub with a uniformly random compatible partner
	// (different node, edge not yet present) instead of rejecting the
	// whole matching on the first collision — the all-or-nothing variant
	// succeeds only with probability ~e^(-d²/4) and is hopeless beyond
	// small d. An attempt restarts only when a stub has no compatible
	// partner left or the result is disconnected.
	const maxAttempts = 200
	stubs := make([]int, 0, n*d)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for k := 0; k < d; k++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		adj := make([][]int, n)
		stuck := false
		for len(stubs) > 0 && !stuck {
			a := stubs[0]
			stubs[0] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			// Pick a random compatible partner for a among the rest.
			pick := -1
			offset := rng.Intn(len(stubs))
			for k := 0; k < len(stubs); k++ {
				j := (offset + k) % len(stubs)
				b := stubs[j]
				if b != a && !slices.Contains(adj[a], b) {
					pick = j
					break
				}
			}
			if pick < 0 {
				stuck = true
				break
			}
			b := stubs[pick]
			stubs[pick] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		if stuck {
			continue
		}
		g := &Graph{name: "regular", adj: adj}
		if !g.Connected() {
			continue
		}
		for i := range adj {
			sort.Ints(adj[i])
		}
		return g, nil
	}
	return nil, fmt.Errorf("cluster: regular(n=%d, d=%d) generation did not converge", n, d)
}

// Name implements Topology.
func (g *Graph) Name() string { return g.name }

// Size implements Topology.
func (g *Graph) Size() int { return len(g.adj) }

// Neighbors implements Topology.
func (g *Graph) Neighbors(id int) []int { return g.adj[id] }

// Degree returns node id's neighbor count.
func (g *Graph) Degree(id int) int { return len(g.adj[id]) }

// MinDegree returns the smallest neighbor count over all nodes — the
// worst-case multiset a node votes on has MinDegree+1 entries.
func (g *Graph) MinDegree() int { return MinDegreeOf(g) }

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool { return eccentricityOf(g, 0) >= 0 }

// Diameter returns the longest shortest path in the graph (0 for a single
// node, 1 for the full mesh), or -1 when the graph is disconnected. It is
// the factor by which information spread — and therefore convergence — is
// delayed relative to the full mesh.
func (g *Graph) Diameter() int { return DiameterOf(g) }

// MinDegreeOf returns the smallest neighbor count over all nodes of any
// Topology (custom implementations included, so the round-horizon logic
// never needs the concrete *Graph).
func MinDegreeOf(t Topology) int {
	n := t.Size()
	min := n // any degree is < n
	for id := 0; id < n; id++ {
		if deg := len(t.Neighbors(id)); deg < min {
			min = deg
		}
	}
	return min
}

// ConnectedOf reports whether every node of the topology is reachable
// from node 0.
func ConnectedOf(t Topology) bool { return eccentricityOf(t, 0) >= 0 }

// DiameterOf returns the longest shortest path of any Topology, or -1 when
// it is disconnected.
func DiameterOf(t Topology) int {
	diam := 0
	for i := 0; i < t.Size(); i++ {
		ecc := eccentricityOf(t, i)
		if ecc < 0 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// eccentricityOf BFSes from src and returns the largest distance found, or
// -1 if some node is unreachable.
func eccentricityOf(t Topology, src int) int {
	n := t.Size()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	visited, far := 1, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				if dist[w] > far {
					far = dist[w]
				}
				visited++
				queue = append(queue, w)
			}
		}
	}
	if visited != n {
		return -1
	}
	return far
}

// containsSorted reports whether sorted xs includes x.
func containsSorted(xs []int, x int) bool {
	i := sort.SearchInts(xs, x)
	return i < len(xs) && xs[i] == x
}
