package core

import (
	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/itemset"
)

// bfsNode is one itemset of the current level in the breadth-first
// framework.
type bfsNode struct {
	items itemset.Itemset
	tids  *bitset.Bitset
	cnt   int
	prF   float64
	pos   int // candidate position of the last item (for prefix extension)
}

// mineBFS is the level-wise MPFCI-BFS framework: every probabilistically
// frequent itemset of level k is fully evaluated before level k+1 is
// generated. Superset and subset pruning do not apply — their triggering
// conditions relate a node to its DFS prefix path, which level-wise
// enumeration never materializes — so only Chernoff-Hoeffding pruning and
// the Lemma 4.4 bounds are available, exactly as in the paper's
// experimental comparison (Fig. 12).
//
// Like the DFS framework, each node probes its candidate extensions once,
// records the intersected tidsets and exact frequent probabilities, and
// hands the records to evaluate; surviving extensions then take ownership
// of their tidset as next-level nodes.
func (m *miner) mineBFS() error {
	level := make([]bfsNode, 0, len(m.cands))
	for pos, c := range m.cands {
		level = append(level, bfsNode{
			items: itemset.Itemset{c.item},
			tids:  c.tids.Clone(),
			cnt:   c.cnt,
			prF:   c.prF,
			pos:   pos,
		})
	}
	for len(level) > 0 {
		var next []bfsNode
		for _, node := range level {
			if m.ctx != nil {
				if err := m.ctx.Err(); err != nil {
					return err
				}
			}
			m.stats.NodesVisited++
			depth := len(node.items)
			// Level-wise nodes have no inline children, so the node's self
			// time is everything evaluate's checking-cascade spans leave
			// unclaimed.
			nodeStart, claimed := m.rec.Now(), m.rec.Claimed()
			exts := m.extBuf(depth)
			// Sibling intersections run through the batched column-sweep
			// kernel, chunked exactly like the DFS extension loop. BFS has
			// no early break (no subset pruning), so every batch buffer is
			// consumed.
			startPos := node.pos + 1
			nc := len(m.cands) - startPos
			var dsts, srcs []*bitset.Bitset
			var counts []int
			if nc > 0 {
				dsts, srcs, counts = m.batchBufs(depth, nc)
			}
			batched := 0
			for pos := startPos; pos < len(m.cands); pos++ {
				i := pos - startPos
				if i >= batched {
					hi := batched + batchChunk
					if hi > nc {
						hi = nc
					}
					for j := batched; j < hi; j++ {
						srcs[j] = m.cands[startPos+j].tids
						dsts[j] = m.getBuf()
					}
					bitset.AndBatch(dsts[batched:hi], counts[batched:hi], node.tids, srcs[batched:hi])
					batched = hi
				}
				c := m.cands[pos]
				buf, cc := dsts[i], counts[i]
				if cc < m.opts.MinSup {
					m.putBuf(buf)
					exts = append(exts, extension{item: c.item, cnt: cc})
					continue
				}
				rec := extension{item: c.item, tids: buf, cnt: cc}
				prF, pruned := m.boundedTail(buf, node.items, c.item, nil)
				if pruned {
					exts = append(exts, rec)
					continue
				}
				rec.prF, rec.hasPrF = prF, true
				if rec.prF <= m.opts.PFCT {
					m.stats.FreqPruned++
				}
				exts = append(exts, rec)
			}
			ri, accepted, err := m.evaluate(node.items, node.tids, node.cnt, node.prF, exts, m.opts.PFCT)
			if err != nil {
				m.releaseExts(depth, exts)
				m.rec.Node(depth, nodeStart, m.rec.Unclaimed(nodeStart, claimed))
				return err
			}
			if accepted {
				m.results = append(m.results, ri)
			}
			for i := range exts {
				rec := &exts[i]
				if !rec.hasPrF || rec.prF <= m.opts.PFCT {
					continue
				}
				next = append(next, bfsNode{
					items: node.items.Extend(rec.item),
					tids:  rec.tids,
					cnt:   rec.cnt,
					prF:   rec.prF,
					pos:   node.pos + 1 + i,
				})
				rec.tids = nil // ownership moved to the next level
			}
			m.releaseExts(depth, exts)
			m.putBuf(node.tids)
			m.rec.Node(depth, nodeStart, m.rec.Unclaimed(nodeStart, claimed))
		}
		level = next
	}
	return nil
}
