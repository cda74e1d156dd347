//! Conflict-graph partitioning for parallel settlement.
//!
//! Two cleared sales *conflict* when their settlements touch a shared
//! resource: a ledger account (the buyer's balance, a dataset owner's
//! payout account) or a dataset's exclusivity hold. Sales with disjoint
//! key sets commute; connecting sales that share a key partitions the
//! round's cleared-sale list into connected components.
//!
//! The partition feeds [`super::settle`]'s two-phase commit: the
//! commit-*independent* arithmetic of each component (fee splits,
//! provenance-based revenue shares) is computed concurrently across
//! components, while the commit itself (escrow holds, id allocation,
//! the audit chain) runs sequentially in global offer-id order, so the
//! result is bit-identical to fully sequential settlement. Component identity is deterministic: sales
//! arrive sorted by global offer id, components are keyed by their
//! smallest member index, and the union-find walks keys through a
//! `BTreeMap`, so the grouping never depends on hash order.

use std::collections::BTreeMap;

/// Union-find `find` with path halving.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Union by root index: the smaller root wins, so every set's
/// representative is its smallest member (stable under input order).
fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra == rb {
        return;
    }
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    parent[hi] = lo;
}

/// Partition items into connected components by shared conflict keys.
///
/// `keys[i]` lists the conflict keys of item `i`; two items sharing any
/// key land in one component. Returns the components as index lists:
/// indices ascend within each component, and components are ordered by
/// their smallest member index — when the items are cleared sales
/// sorted by global offer id, the component id is the component's
/// minimum global offer id.
pub(crate) fn connected_components(keys: &[Vec<String>]) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..keys.len()).collect();
    let mut first_owner: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, item_keys) in keys.iter().enumerate() {
        for key in item_keys {
            match first_owner.get(key.as_str()) {
                Some(&j) => union(&mut parent, i, j),
                None => {
                    first_owner.insert(key, i);
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..keys.len() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    // Members were pushed in ascending index order, so each group's
    // first element is its minimum; BTreeMap iteration yields groups
    // keyed by root, and every root is its set's minimum member.
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(lists: &[&[&str]]) -> Vec<Vec<String>> {
        lists
            .iter()
            .map(|l| l.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn disjoint_items_form_singleton_components() {
        let comps = connected_components(&keys(&[&["a:x"], &["a:y"], &["a:z"]]));
        assert_eq!(comps, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn shared_keys_merge_transitively() {
        // 0—1 share a buyer, 1—2 share a dataset: one component.
        let comps = connected_components(&keys(&[
            &["a:b1", "d:1"],
            &["a:b1", "d:2"],
            &["a:b2", "d:2"],
            &["a:b3", "d:9"],
        ]));
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn components_are_ordered_by_minimum_member() {
        // 0 and 3 connect late; the component still sorts under 0.
        let comps = connected_components(&keys(&[
            &["a:p"],
            &["a:q"],
            &["a:q", "a:r"],
            &["a:p", "a:s"],
        ]));
        assert_eq!(comps, vec![vec![0, 3], vec![1, 2]]);
    }

    #[test]
    fn empty_input_yields_no_components() {
        assert!(connected_components(&[]).is_empty());
    }

    #[test]
    fn keyless_items_are_isolated() {
        let comps = connected_components(&keys(&[&[], &["a:x"], &[]]));
        assert_eq!(comps, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn ordering_is_independent_of_key_list_order_within_items() {
        let a = connected_components(&keys(&[&["k1", "k2"], &["k2", "k3"]]));
        let b = connected_components(&keys(&[&["k2", "k1"], &["k3", "k2"]]));
        assert_eq!(a, b);
    }
}
