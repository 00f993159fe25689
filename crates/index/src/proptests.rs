//! Property tests: index structures must agree with linear scans and keep
//! their invariants under arbitrary insert/delete interleavings.

use proptest::prelude::*;
use ter_text::Interval;

use crate::artree::{ArTree, Entry};
use crate::grid::Grid;
use crate::rect::Rect;
use crate::Aggregate;

#[derive(Debug, Clone, PartialEq)]
struct Count(usize);
impl Aggregate for Count {
    fn merge(&mut self, o: &Self) {
        self.0 += o.0;
    }
}

/// Count plus the hull of the ids folded in: a stale or misordered cell
/// aggregate shows in the count or in either end of the hull.
#[derive(Debug, Clone, PartialEq)]
struct IdSpan {
    n: usize,
    lo: usize,
    hi: usize,
}
impl IdSpan {
    fn of(id: usize) -> Self {
        Self {
            n: 1,
            lo: id,
            hi: id,
        }
    }
}
impl Aggregate for IdSpan {
    fn merge(&mut self, o: &Self) {
        self.n += o.n;
        self.lo = self.lo.min(o.lo);
        self.hi = self.hi.max(o.hi);
    }
}

fn arb_point(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u32..=100).prop_map(|v| v as f64 / 100.0), dim)
}

fn arb_rect(dim: usize) -> impl Strategy<Value = Rect> {
    proptest::collection::vec(
        ((0u32..=100), (0u32..=100)).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Interval::new(lo as f64 / 100.0, hi as f64 / 100.0)
        }),
        dim,
    )
    .prop_map(Rect::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// aR-tree range query ≡ linear scan, after inserts only.
    #[test]
    fn artree_range_matches_scan(
        points in proptest::collection::vec(arb_point(2), 0..120),
        range in arb_rect(2),
    ) {
        let mut tree: ArTree<usize, Count> = ArTree::new(2, 5);
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i, Count(1));
        }
        tree.check_invariants().unwrap();
        let mut got: Vec<usize> =
            tree.range_query(&range).iter().map(|e| e.payload).collect();
        let mut expect: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| range.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Bulk load ≡ incremental insert, query-wise.
    #[test]
    fn artree_bulk_equals_incremental(
        points in proptest::collection::vec(arb_point(3), 1..100),
        range in arb_rect(3),
    ) {
        let items: Vec<Entry<usize, ()>> = points
            .iter()
            .enumerate()
            .map(|(i, p)| Entry { point: p.clone().into_boxed_slice(), payload: i, agg: () })
            .collect();
        let bulk = ArTree::bulk_load(3, 5, items);
        bulk.check_invariants().unwrap();
        let mut incr: ArTree<usize, ()> = ArTree::new(3, 5);
        for (i, p) in points.iter().enumerate() {
            incr.insert(p.clone(), i, ());
        }
        let mut a: Vec<usize> = bulk.range_query(&range).iter().map(|e| e.payload).collect();
        let mut b: Vec<usize> = incr.range_query(&range).iter().map(|e| e.payload).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Insert/delete interleavings keep invariants, the length counter, the
    /// root aggregate, and query results consistent with a shadow model.
    #[test]
    fn artree_insert_delete_model(
        ops in proptest::collection::vec((arb_point(2), any::<bool>()), 1..80),
        range in arb_rect(2),
    ) {
        let mut tree: ArTree<usize, Count> = ArTree::new(2, 4);
        let mut model: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut next_id = 0usize;
        for (point, is_insert) in ops {
            if is_insert || model.is_empty() {
                tree.insert(point.clone(), next_id, Count(1));
                model.push((point, next_id));
                next_id += 1;
            } else {
                let (p, id) = model.swap_remove(model.len() / 2);
                prop_assert!(tree.delete(&p, &id));
            }
            tree.check_invariants().unwrap();
        }
        prop_assert_eq!(tree.len(), model.len());
        if !model.is_empty() {
            prop_assert_eq!(tree.root_agg(), Some(&Count(model.len())));
        }
        let mut got: Vec<usize> = tree.range_query(&range).iter().map(|e| e.payload).collect();
        let mut expect: Vec<usize> = model
            .iter()
            .filter(|(p, _)| range.contains_point(p))
            .map(|(_, id)| *id)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Grid range query ≡ linear scan under FIFO insert/evict churn, and
    /// after every op each cell holds its entries in insertion order under
    /// a cached aggregate equal to a from-scratch fold of those entries.
    #[test]
    fn grid_matches_scan_under_churn(
        ops in proptest::collection::vec((arb_point(2), any::<bool>()), 1..100),
        range in arb_rect(2),
    ) {
        let mut grid: Grid<usize, IdSpan> = Grid::new(2, 7);
        let mut model: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut next_id = 0usize;
        for (point, is_insert) in ops {
            if is_insert || model.is_empty() {
                grid.insert(point.clone(), next_id, IdSpan::of(next_id));
                model.push((point, next_id));
                next_id += 1;
            } else {
                let (p, id) = model.remove(0); // FIFO, like window expiry
                prop_assert!(grid.evict(&p, &id));
            }
            grid.check_invariants().unwrap();
            for (key, agg, entries) in grid.iter_cells() {
                let ids: Vec<usize> = entries.iter().map(|e| e.payload).collect();
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "cell {:?} order {:?}", key, ids);
                let mut fold = IdSpan::of(ids[0]);
                for &id in &ids[1..] {
                    fold.merge(&IdSpan::of(id));
                }
                prop_assert_eq!(agg, &fold, "cell {:?}", key);
            }
        }
        let mut got: Vec<usize> = grid.range_query(&range).iter().map(|e| e.payload).collect();
        let mut expect: Vec<usize> = model
            .iter()
            .filter(|(p, _)| range.contains_point(p))
            .map(|(_, id)| *id)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Cell aggregates always equal the merge of their entries' aggregates
    /// (checked via total count conservation).
    #[test]
    fn grid_aggregate_conservation(points in proptest::collection::vec(arb_point(1), 1..60)) {
        let mut grid: Grid<usize, Count> = Grid::new(1, 5);
        for (i, p) in points.iter().enumerate() {
            grid.insert(p.clone(), i, Count(1));
        }
        let mut total = 0;
        grid.traverse(|_, agg| { total += agg.0; false }, |_| {});
        prop_assert_eq!(total, points.len());
    }
}
