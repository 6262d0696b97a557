package resolution

import (
	"fmt"

	"repro/internal/cnf"
)

// Graph is the explicit node-level resolution DAG expanded from a chain
// Proof — the representation whose size the paper argues can be
// prohibitive. Node IDs: 0..NumSources-1 are the sources; internal node i
// (a single binary resolution) has ID NumSources+i.
type Graph struct {
	NumSources int
	Nodes      []GraphNode
	// Sink is the node deriving the empty clause.
	Sink int
}

// GraphNode is one binary resolution of Left and Right on Pivot.
type GraphNode struct {
	Left, Right int
	Pivot       cnf.Var
}

// Expand performs every chain resolution and materializes the binary DAG.
// It fails wherever Verify would (missing clash, tautology), so a verified
// proof always expands.
func (p *Proof) Expand() (*Graph, error) {
	g := &Graph{NumSources: len(p.Sources)}
	clauses := make([]cnf.Clause, len(p.Sources), len(p.Sources)+len(p.Chains))
	for i, c := range p.Sources {
		norm, _ := c.Normalize()
		clauses[i] = norm
	}
	// nodeOf maps a proof clause ID (source or chain result) to its graph
	// node ID. Sources map to themselves; chain results map to the last
	// internal node of the chain (or, for copy chains, to the copied node).
	nodeOf := make([]int, len(p.Sources), len(p.Sources)+len(p.Chains))
	for i := range p.Sources {
		nodeOf[i] = i
	}
	for k, ch := range p.Chains {
		if len(ch) == 0 {
			return nil, fmt.Errorf("resolution: chain %d is empty", k)
		}
		self := len(p.Sources) + k
		for _, id := range ch {
			if id < 0 || id >= self {
				return nil, fmt.Errorf("resolution: chain %d references node %d", k, id)
			}
		}
		cur := clauses[ch[0]]
		curNode := nodeOf[ch[0]]
		for i := 1; i < len(ch); i++ {
			next := clauses[ch[i]]
			v, ok := cnf.ClashVar(cur, next)
			if !ok {
				return nil, fmt.Errorf("resolution: chain %d step %d: no unique clash", k, i)
			}
			res, taut, ok := cur.Resolve(next, v)
			if !ok || taut {
				return nil, fmt.Errorf("resolution: chain %d step %d: bad resolvent", k, i)
			}
			g.Nodes = append(g.Nodes, GraphNode{Left: curNode, Right: nodeOf[ch[i]], Pivot: v})
			curNode = g.NumSources + len(g.Nodes) - 1
			cur = res
		}
		clauses = append(clauses, cur)
		nodeOf = append(nodeOf, curNode)
	}
	if len(clauses) == len(p.Sources) {
		return nil, fmt.Errorf("resolution: no derived clauses")
	}
	if last := clauses[len(clauses)-1]; len(last) != 0 {
		return nil, fmt.Errorf("resolution: sink clause %v is not empty", last)
	}
	g.Sink = nodeOf[len(nodeOf)-1]
	return g, nil
}

// NumInternal returns the number of internal (resolution) nodes.
func (g *Graph) NumInternal() int { return len(g.Nodes) }

// ReachStats summarizes the part of the graph reachable from the sink —
// i.e. the resolution proof after discarding steps that never feed the
// empty clause (the resolution-graph analogue of proof trimming).
type ReachStats struct {
	InternalNodes  int
	SourcesTouched int
	SourceIDs      []int // the touched sources: an unsatisfiable core of the input
	Depth          int   // longest source-to-sink path length (in resolutions)
}

// Reachable computes the trimmed-graph statistics from the sink.
func (g *Graph) Reachable() ReachStats {
	seenSrc := make([]bool, g.NumSources)
	seenInt := make([]bool, len(g.Nodes))
	depth := make([]int, g.NumSources+len(g.Nodes))

	var stats ReachStats
	// DFS with explicit post-order for depth computation; the DAG is
	// topologically ordered (children have smaller IDs), so a reverse
	// top-down pass also works: process reachable nodes in descending ID
	// order.
	reach := make([]bool, g.NumSources+len(g.Nodes))
	reach[g.Sink] = true
	for id := g.Sink; id >= 0; id-- {
		if !reach[id] {
			continue
		}
		if id < g.NumSources {
			if !seenSrc[id] {
				seenSrc[id] = true
				stats.SourcesTouched++
				stats.SourceIDs = append(stats.SourceIDs, id)
			}
			continue
		}
		n := g.Nodes[id-g.NumSources]
		if !seenInt[id-g.NumSources] {
			seenInt[id-g.NumSources] = true
			stats.InternalNodes++
		}
		reach[n.Left] = true
		reach[n.Right] = true
	}
	// Depth: process in ascending ID order; depth of a source is 0, of an
	// internal node 1 + max(children).
	for id := 0; id <= g.Sink; id++ {
		if id < g.NumSources || !reach[id] {
			continue
		}
		n := g.Nodes[id-g.NumSources]
		d := depth[n.Left]
		if depth[n.Right] > d {
			d = depth[n.Right]
		}
		depth[id] = d + 1
	}
	stats.Depth = depth[g.Sink]
	// SourceIDs were collected in descending order; reverse for stability.
	for i, j := 0, len(stats.SourceIDs)-1; i < j; i, j = i+1, j-1 {
		stats.SourceIDs[i], stats.SourceIDs[j] = stats.SourceIDs[j], stats.SourceIDs[i]
	}
	return stats
}
