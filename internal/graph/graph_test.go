package graph

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mobicol/internal/rng"
)

// line returns the path graph 0-1-2-...-(n-1) with unit weights.
func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

// randomGraph returns a random graph on n vertices where each pair is
// joined with probability p and a uniform weight in [1, 10).
func randomGraph(s *rng.Source, n int, p float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.Bool(p) {
				g.AddEdge(i, j, s.Uniform(1, 10))
			}
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 1.5)
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatal("Degree wrong")
	}
	if got := g.TotalWeight(); got != 4 {
		t.Fatalf("TotalWeight = %v", got)
	}
	if len(g.Edges()) != 2 {
		t.Fatal("Edges wrong")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(3).AddEdge(1, 1, 1)
}

func TestVertexRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vertex did not panic")
		}
	}()
	New(3).AddEdge(0, 3, 1)
}

func TestBFSLine(t *testing.T) {
	g := line(5)
	r := BFS(g, 0)
	for i := 0; i < 5; i++ {
		if r.Dist[i] != i || r.Parent[i] != i-1 {
			t.Fatalf("vertex %d: Dist %d Parent %d", i, r.Dist[i], r.Parent[i])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	r := BFS(g, 0)
	for _, v := range []int{2, 3} {
		if r.Dist[v] != -1 || r.Parent[v] != -1 {
			t.Fatalf("unreachable vertex %d: Dist %d Parent %d", v, r.Dist[v], r.Parent[v])
		}
	}
}

func TestMultiBFSNearestSource(t *testing.T) {
	g := line(7)
	r := MultiBFS(g, []int{0, 6})
	wantDist := []int{0, 1, 2, 3, 2, 1, 0}
	for i, w := range wantDist {
		if r.Dist[i] != w {
			t.Fatalf("Dist[%d] = %d, want %d", i, r.Dist[i], w)
		}
	}
}

func TestMultiBFSDuplicateSources(t *testing.T) {
	g := line(3)
	r := MultiBFS(g, []int{0, 0, 0})
	if r.Dist[2] != 2 {
		t.Fatalf("Dist[2] = %d", r.Dist[2])
	}
}

// TestBFSShortestHops checks BFS against the definition of hop distance
// on random graphs: the source is at 0, no edge spans more than one
// level, every other reached vertex has a neighbour (its parent) one
// level closer, and exactly the source's component is reached.
func TestBFSShortestHops(t *testing.T) {
	s := rng.New(40)
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(s, 30, 0.1)
		src := s.Intn(g.N())
		r := BFS(g, src)
		_, comp := Components(g)
		if r.Dist[src] != 0 || r.Parent[src] != -1 {
			t.Fatalf("source %d: Dist %d Parent %d", src, r.Dist[src], r.Parent[src])
		}
		for v := 0; v < g.N(); v++ {
			if reached := r.Dist[v] >= 0; reached != (comp[v] == comp[src]) {
				t.Fatalf("vertex %d: reached %v, same component as source %v", v, reached, comp[v] == comp[src])
			}
			if r.Dist[v] < 0 {
				continue
			}
			closer := v == src
			for _, a := range g.adj[v] {
				if d := r.Dist[a.To] - r.Dist[v]; d > 1 || d < -1 {
					t.Fatalf("edge %d-%d spans levels %d and %d", v, a.To, r.Dist[v], r.Dist[a.To])
				}
				if a.To == r.Parent[v] && r.Dist[a.To] == r.Dist[v]-1 {
					closer = true
				}
			}
			if !closer {
				t.Fatalf("vertex %d at level %d has no parent neighbour one level closer", v, r.Dist[v])
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Connected(4, 5) {
		t.Fatal("singletons reported connected")
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) || uf.Union(0, 1) {
		t.Fatal("Union return values wrong")
	}
	if !uf.Connected(0, 1) || uf.Connected(1, 2) {
		t.Fatal("Connected wrong")
	}
	uf.Union(1, 3)
	if !uf.Connected(0, 2) {
		t.Fatal("transitive connection missing")
	}
	if uf.Connected(3, 4) || uf.Find(4) != 4 || uf.Find(5) != 5 { // {0,1,2,3}, {4}, {5}
		t.Fatal("union leaked into singletons")
	}
}

// kruskalMST computes the minimum spanning forest with Kruskal's
// algorithm: the reference CompleteEuclideanMST and the forest tests
// check against.
func kruskalMST(g *Graph) (edges []Edge, total float64) {
	all := g.Edges()
	sort.Slice(all, func(i, j int) bool { return all[i].W < all[j].W })
	uf := NewUnionFind(g.N())
	for _, e := range all {
		if uf.Union(e.U, e.V) {
			edges = append(edges, e)
			total += e.W
		}
	}
	return edges, total
}

func TestMSTKnown(t *testing.T) {
	// Square with diagonal: MST weight = 1+1+1 = 3.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 2)
	g.AddEdge(0, 2, 3)
	edges, total := kruskalMST(g)
	if len(edges) != 3 || total != 3 {
		t.Fatalf("MST total = %v with %d edges", total, len(edges))
	}
}

func TestMSTForest(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 2) // two components + isolated vertex 4
	edges, total := kruskalMST(g)
	if len(edges) != 2 || total != 3 {
		t.Fatalf("forest MST = %v edges, total %v", len(edges), total)
	}
}

func TestCompleteEuclideanMSTMatchesSparse(t *testing.T) {
	s := rng.New(43)
	for trial := 0; trial < 10; trial++ {
		n := 3 + s.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = s.Uniform(0, 100), s.Uniform(0, 100)
		}
		dist := func(i, j int) float64 { return math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) }
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.AddEdge(i, j, dist(i, j))
			}
		}
		_, want := kruskalMST(g)
		_, got := CompleteEuclideanMST(n, dist)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("dense MST %v != sparse MST %v", got, want)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	comps, comp := Components(g)
	if len(comps) != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("got %d components", len(comps))
	}
	if comp[0] != comp[2] || comp[0] == comp[3] || comp[5] == comp[6] {
		t.Fatal("component labels wrong")
	}
	if comps, _ := Components(line(5)); len(comps) != 1 {
		t.Fatalf("line has %d components", len(comps))
	}
}

// Property: MST edge count equals N - #components.
func TestQuickMSTEdgeCount(t *testing.T) {
	s := rng.New(44)
	f := func() bool {
		g := randomGraph(s, 2+s.Intn(40), 0.1)
		comps, _ := Components(g)
		edges, _ := kruskalMST(g)
		return len(edges) == g.N()-len(comps)
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreePreorderAndDepths(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//   /   / \
	//  3   4   5
	parent := []int{-1, 0, 0, 1, 2, 2}
	tr := NewTreeFromParents(0, parent)
	order := tr.Preorder()
	if order[0] != 0 || len(order) != 6 {
		t.Fatalf("Preorder = %v", order)
	}
	pos := make([]int, 6)
	for i, v := range order {
		pos[v] = i
	}
	// Every child appears after its parent.
	for v, p := range parent {
		if p >= 0 && pos[v] < pos[p] {
			t.Fatalf("child %d precedes parent %d in %v", v, p, order)
		}
	}
	// Children are visited in index order, depth first.
	want := []int{0, 1, 3, 2, 4, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Preorder = %v, want %v", order, want)
		}
	}
}
