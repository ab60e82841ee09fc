//! Memory models: forests of memory trees (§3.2).
//!
//! A [`MemModel`] is a set of [`MemTree`]s. Regions in the same node
//! alias; children are enclosed in their parents; siblings are
//! separate (Definition 3.9). The [`MemModel::insert`] operation
//! implements the `ins` function of Definition 3.7, extended with the
//! nondeterministic fork of §1/§2: when no *necessarily*-relation can
//! be established between the inserted region and an existing tree,
//! insertion produces one branch per *possible* structured relation
//! (assumed aliasing, assumed separation) plus a destroy branch that
//! covers partially-overlapping concrete states.

use crate::tau::MAX_MODELS_PER_STEP;
use hgl_expr::Sym;
use hgl_solver::{decide, Answer, Assumption, Ctx, Region, RegionRel};
use std::collections::BTreeSet;
use std::fmt;

/// A memory tree: a node of mutually aliasing regions plus an enclosed
/// sub-forest.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemTree {
    /// Mutually aliasing regions at this node.
    pub regions: BTreeSet<Region>,
    /// Sub-forest of enclosed regions.
    pub children: MemModel,
}

impl MemTree {
    /// A leaf tree holding one region.
    pub fn leaf(r: Region) -> MemTree {
        MemTree { regions: BTreeSet::from([r]), children: MemModel::default() }
    }

    /// All regions in this tree (node and descendants).
    pub fn all_regions(&self) -> Vec<&Region> {
        let mut out: Vec<&Region> = self.regions.iter().collect();
        for t in &self.children.trees {
            out.extend(t.all_regions());
        }
        out
    }
}

/// A memory model: a forest of memory trees.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemModel {
    /// The trees; kept sorted for canonical equality.
    pub trees: Vec<MemTree>,
}

/// One branch of a (possibly forking) insertion.
#[derive(Debug, Clone)]
pub struct InsBranch {
    /// The resulting memory model.
    pub model: MemModel,
    /// Regions whose trees were destroyed (their known values must be
    /// forgotten by the caller).
    pub destroyed: Vec<Region>,
    /// If this branch *assumes* the inserted region aliases an existing
    /// one, the pair `(inserted, existing)`; the caller adds the
    /// corresponding equality clause to the predicate.
    pub assumed_alias: Option<(Region, Region)>,
    /// Memory-space assumptions used by the solver on this branch.
    pub assumptions: Vec<Assumption>,
}

/// Tree-level relation of a single region against a tree.
///
/// Each top-level region is decided once, in order, until one aliases;
/// the later checks (enclosed, encloses) classify from those answers.
/// The separate check reads them again, then decides the descendants
/// in `MemTree::all_regions` order, so the assumptions it appends keep
/// that order.
fn region_vs_tree(ctx: &Ctx, r: &Region, t: &MemTree, assumptions: &mut Vec<Assumption>) -> RegionRel {
    // Aliases some top-level region?
    let mut top = Vec::with_capacity(t.regions.len());
    for r1 in &t.regions {
        let answer = decide(ctx, r, r1);
        if answer.rel == RegionRel::Alias {
            assumptions.extend(answer.assumptions);
            return RegionRel::Alias;
        }
        top.push(answer);
    }
    // Enclosed in some top-level region?
    if let Some(a) = top.iter().find(|a| a.rel == RegionRel::Enclosed) {
        assumptions.extend(a.assumptions.iter().cloned());
        return RegionRel::Enclosed;
    }
    // Encloses all top-level regions?
    if !top.is_empty() && top.iter().all(|a| a.rel == RegionRel::Encloses) {
        for a in top {
            assumptions.extend(a.assumptions);
        }
        return RegionRel::Encloses;
    }
    // Separate from every region in the whole tree?
    let mut all_sep = true;
    let mut any_overlap = false;
    let mut sep_assumptions = Vec::new();
    let below = t.children.trees.iter().flat_map(MemTree::all_regions);
    for Answer { rel, assumptions: a } in top.into_iter().chain(below.map(|r1| decide(ctx, r, r1))) {
        match rel {
            RegionRel::Separate => sep_assumptions.extend(a),
            RegionRel::Overlap => {
                any_overlap = true;
                all_sep = false;
            }
            _ => all_sep = false,
        }
    }
    if all_sep {
        assumptions.extend(sep_assumptions);
        return RegionRel::Separate;
    }
    if any_overlap {
        return RegionRel::Overlap;
    }
    RegionRel::Unknown
}

impl MemModel {
    /// An empty model (`M₀ = ∅` of the §2 example).
    pub fn empty() -> MemModel {
        MemModel::default()
    }

    fn canon(mut self) -> MemModel {
        for t in &mut self.trees {
            let children = std::mem::take(&mut t.children);
            t.children = children.canon();
        }
        self.trees.sort();
        self.trees.dedup();
        self
    }

    /// All regions mentioned anywhere in the model.
    pub fn all_regions(&self) -> Vec<&Region> {
        self.trees.iter().flat_map(MemTree::all_regions).collect()
    }

    /// True if `r` occurs anywhere in the model (allocation-free;
    /// insertion probes this on every memory access).
    pub fn contains_region(&self, r: &Region) -> bool {
        // Membership by handle: `Region` equality is one pointer and
        // one size comparison, where `BTreeSet::contains` would compare
        // address terms structurally on the way down.
        fn tree_has(t: &MemTree, r: &Region) -> bool {
            t.regions.iter().any(|x| x == r) || t.children.trees.iter().any(|c| tree_has(c, r))
        }
        self.trees.iter().any(|t| tree_has(t, r))
    }

    /// The relation the model structure itself asserts between two
    /// regions it contains, if any (used before consulting the solver,
    /// so that *assumed* relations from earlier forks stay in force).
    pub fn structural_relation(&self, r0: &Region, r1: &Region) -> Option<RegionRel> {
        // One allocation-free walk replaces the old locate-both-paths
        // pass (this runs per stored region on every memory access).
        // Path-prefix logic, expressed positionally: same node → alias;
        // one region at a node the other sits below → enclosure; found
        // under diverging branches → separate.
        enum Found {
            Neither,
            First,
            Second,
            Both(RegionRel),
        }
        fn walk(m: &MemModel, r0: &Region, r1: &Region) -> Found {
            let mut f0 = false;
            let mut f1 = false;
            for t in &m.trees {
                let here0 = t.regions.iter().any(|x| x == r0);
                let here1 = t.regions.iter().any(|x| x == r1);
                if here0 && here1 {
                    // Same node: alias (identical regions trivially so).
                    return Found::Both(RegionRel::Alias);
                }
                match walk(&t.children, r0, r1) {
                    Found::Both(rel) => return Found::Both(rel),
                    Found::First => {
                        if here1 {
                            return Found::Both(RegionRel::Enclosed);
                        }
                        f0 = true;
                    }
                    Found::Second => {
                        if here0 {
                            return Found::Both(RegionRel::Encloses);
                        }
                        f1 = true;
                    }
                    Found::Neither => {
                        f0 |= here0;
                        f1 |= here1;
                    }
                }
                if f0 && f1 {
                    return Found::Both(RegionRel::Separate);
                }
            }
            match (f0, f1) {
                (true, _) => Found::First,
                (_, true) => Found::Second,
                _ => Found::Neither,
            }
        }
        match walk(self, r0, r1) {
            Found::Both(rel) => Some(rel),
            _ => None,
        }
    }

    /// Decide the relation between two regions: the model's structural
    /// assertion wins; otherwise the solver decides.
    pub fn relation(&self, ctx: &Ctx, r0: &Region, r1: &Region) -> Answer {
        if let Some(rel) = self.structural_relation(r0, r1) {
            return Answer { rel, assumptions: Vec::new() };
        }
        decide(ctx, r0, r1)
    }

    /// Insert `region` (Definition 3.7 + the unknown-relation fork).
    ///
    /// Returns one [`InsBranch`] per produced memory model, at most
    /// [`MAX_MODELS_PER_STEP`]. Where the forks would produce more, the
    /// *last* ones are kept. The last branch is always the catch-all:
    /// every tree of unknown relation destroyed and no alias assumed.
    /// It covers every concrete state the others cover, so the cut
    /// stays sound.
    pub fn insert(&self, ctx: &Ctx, region: Region) -> Vec<InsBranch> {
        if region.is_unknown() {
            // Unknown address: overapproximates any relation; the model
            // is left untouched and the caller must forget all values
            // (paper §4, evaluation of ⊥ regions).
            return vec![InsBranch {
                model: self.clone(),
                destroyed: self.all_regions().into_iter().cloned().collect(),
                assumed_alias: None,
                assumptions: Vec::new(),
            }];
        }
        if self.contains_region(&region) {
            // Already present: nothing to do.
            return vec![InsBranch {
                model: self.clone(),
                destroyed: Vec::new(),
                assumed_alias: None,
                assumptions: Vec::new(),
            }];
        }
        // ins_rec cuts at fork sites, so the branch count is bounded by
        // the cap on return.
        let mut branches = ins_rec(ctx, MemTree::leaf(region), &self.trees, MAX_MODELS_PER_STEP);
        for b in &mut branches {
            let model = std::mem::take(&mut b.model);
            b.model = model.canon();
        }
        branches
    }

    /// Remove a region (and forget its node membership). Children of a
    /// node whose last region is removed are promoted to the parent
    /// level — their mutual separation remains true.
    pub fn remove_region(&self, r: &Region) -> MemModel {
        fn walk(m: &MemModel, r: &Region) -> MemModel {
            let mut out = Vec::new();
            for t in &m.trees {
                let mut regions = t.regions.clone();
                regions.remove(r);
                let children = walk(&t.children, r);
                if regions.is_empty() {
                    out.extend(children.trees);
                } else {
                    out.push(MemTree { regions, children });
                }
            }
            MemModel { trees: out }
        }
        walk(self, r).canon()
    }

    /// Retain only regions satisfying `keep` (used when an external
    /// call destroys the heap and global space).
    pub fn retain<F: Fn(&Region) -> bool>(&self, keep: &F) -> MemModel {
        let mut out = self.clone();
        for r in self.all_regions() {
            if !keep(r) {
                out = out.remove_region(r);
            }
        }
        out
    }

    /// The join `M₀ ⊔ M₁` (Definition 3.12).
    ///
    /// Trees are partitioned by the transitive closure of sharing a
    /// top-level region; each class joins into one tree whose node is
    /// the intersection of the class's nodes and whose children are the
    /// join of the class's sub-forests. Classes containing trees from
    /// only one side are dropped (slightly coarser than the paper's
    /// definition, which keeps them; dropping is sound since a model
    /// with fewer regions asserts strictly less).
    ///
    /// Fast path: when the two forests are equal and *canonical*, the
    /// join is `other` itself, for one comparison and a shape check
    /// instead of the union-find. Canonical means every level is sorted
    /// and deduplicated as `canon` leaves it, no node is empty, and no
    /// region occurs twice in the model. Each class of the union-find
    /// is then one tree and its equal twin, so the union-find would
    /// rebuild the forest unchanged; debug builds assert that it does.
    /// Any other shape (an unsorted level, a region in two trees, an
    /// empty node) takes the union-find, which may regroup it. Every
    /// model `insert`, `remove_region` and `join` return is canonical
    /// when their inputs are.
    pub fn join(&self, other: &MemModel) -> MemModel {
        if self.join_is_other(other) {
            return other.clone();
        }
        self.join_classes(other)
    }

    /// True when [`MemModel::join`] takes the equal-model fast path,
    /// i.e. `self ⊔ other` is `other`.
    pub(crate) fn join_is_other(&self, other: &MemModel) -> bool {
        let fast = (std::ptr::eq(self, other) || self == other) && other.is_canonical();
        debug_assert!(
            !fast || self.join_classes(other) == *other,
            "equal-model join fast path disagrees with the union-find on {other}"
        );
        fast
    }

    /// The shape condition of the fast path in [`MemModel::join`].
    fn is_canonical(&self) -> bool {
        fn levels_canonical(m: &MemModel) -> bool {
            m.trees.windows(2).all(|w| w[0] < w[1])
                && m.trees.iter().all(|t| !t.regions.is_empty() && levels_canonical(&t.children))
        }
        let mut regions = self.all_regions();
        regions.sort_unstable();
        levels_canonical(self) && regions.windows(2).all(|w| w[0] != w[1])
    }

    /// The union-find join of Definition 3.12: [`MemModel::join`]
    /// without the equal-model fast path.
    pub(crate) fn join_classes(&self, other: &MemModel) -> MemModel {
        if self.trees.is_empty() || other.trees.is_empty() {
            // One-sided classes are dropped, so a join with the empty
            // model is empty — skip the union-find entirely.
            return MemModel::default();
        }
        if let ([t0], [t1]) = (self.trees.as_slice(), other.trees.as_slice()) {
            // One tree a side (the overwhelmingly common shape): the
            // two trees either share a top-level region — one class,
            // node intersection, children joined — or they are
            // one-sided classes and the join is empty. Identical to
            // the general path below, minus the union-find.
            if t0.regions.is_disjoint(&t1.regions) {
                return MemModel::default();
            }
            let regions: BTreeSet<Region> =
                t0.regions.intersection(&t1.regions).cloned().collect();
            if regions.is_empty() {
                return MemModel::default();
            }
            let children = t0.children.join(&t1.children);
            return MemModel { trees: vec![MemTree { regions, children }] }.canon();
        }
        let n0 = self.trees.len();
        let all: Vec<(&MemTree, bool)> = self
            .trees
            .iter()
            .map(|t| (t, false))
            .chain(other.trees.iter().map(|t| (t, true)))
            .collect();
        // Union-find over tree indices by shared top-level regions.
        let mut parent: Vec<usize> = (0..all.len()).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
                r
            } else {
                i
            }
        }
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                if !all[i].0.regions.is_disjoint(&all[j].0.regions) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut classes: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..all.len() {
            let r = find(&mut parent, i);
            classes.entry(r).or_default().push(i);
        }
        let mut out = Vec::new();
        for members in classes.values() {
            let has0 = members.iter().any(|&i| i < n0);
            let has1 = members.iter().any(|&i| i >= n0);
            if !(has0 && has1) {
                continue;
            }
            let mut regions: Option<BTreeSet<Region>> = None;
            let mut children = MemModel::default();
            let mut first = true;
            for &i in members {
                let t = all[i].0;
                regions = Some(match regions {
                    None => t.regions.clone(),
                    Some(r) => r.intersection(&t.regions).cloned().collect(),
                });
                children = if first { t.children.clone() } else { children.join(&t.children) };
                first = false;
            }
            let regions = regions.unwrap_or_default();
            if !regions.is_empty() {
                out.push(MemTree { regions, children });
            }
        }
        MemModel { trees: out }.canon()
    }

    /// Evaluate Definition 3.9: does the model hold in the concrete
    /// state given by the symbol environment? `None` if some address
    /// fails to evaluate.
    pub fn holds_in<F>(&self, env: &F) -> Option<bool>
    where
        F: Fn(Sym) -> u64,
    {
        let nomem = |_: u64, _: u8| None;
        let eval = |r: &Region| -> Option<(u64, u64)> {
            let a = r.addr.eval(env, &nomem)?;
            Some((a, r.size))
        };
        fn tree_holds<E: Fn(&Region) -> Option<(u64, u64)>>(t: &MemTree, eval: &E) -> Option<bool> {
            // Node regions pairwise alias.
            let evs: Vec<(u64, u64)> = t.regions.iter().map(eval).collect::<Option<_>>()?;
            for w in evs.windows(2) {
                if w[0] != w[1] {
                    return Some(false);
                }
            }
            let (na, ns) = evs[0];
            // Children enclosed in the node.
            for c in &t.children.trees {
                for r in &c.regions {
                    let (ca, cs) = eval(r)?;
                    if !(ca >= na && ca + cs <= na + ns) {
                        return Some(false);
                    }
                }
                if !tree_holds(c, eval)? {
                    return Some(false);
                }
                // Siblings separate.
            }
            forest_separate(&t.children, eval)
        }
        fn forest_separate<E: Fn(&Region) -> Option<(u64, u64)>>(m: &MemModel, eval: &E) -> Option<bool> {
            for i in 0..m.trees.len() {
                for j in i + 1..m.trees.len() {
                    for r0 in m.trees[i].all_regions() {
                        for r1 in m.trees[j].all_regions() {
                            let (a0, s0) = eval(r0)?;
                            let (a1, s1) = eval(r1)?;
                            if !(a0.wrapping_add(s0) <= a1 || a1.wrapping_add(s1) <= a0) {
                                return Some(false);
                            }
                        }
                    }
                }
            }
            Some(true)
        }
        for t in &self.trees {
            if !tree_holds(t, &eval)? {
                return Some(false);
            }
        }
        forest_separate(self, &eval)
    }
}

/// Cut `branches` to its last `cap` entries.
///
/// Every branch list `ins_rec` returns ends with its catch-all: the
/// branch with every tree of unknown relation destroyed and no alias
/// assumed. By induction over the relation cases: the leaf case is one
/// such branch; the separate, enclosed and overlap cases map their
/// recursive result in order; the alias and encloses cases end with
/// the product of two lists' last branches; and the unknown case ends
/// with its destroy fork. The catch-all covers the input state, so
/// keeping the tail is sound and keeping the head is not. The same
/// holds for the states `tau::insert_regions` builds from the branches
/// in order, which is why it cuts with this function too.
pub(crate) fn keep_last<T>(branches: &mut Vec<T>, cap: usize) {
    if branches.len() > cap {
        branches.drain(..branches.len() - cap);
    }
}

/// The recursive `ins` of Definition 3.7 over a tree list, extended
/// with the unknown-relation fork. `t0` is the tree being inserted;
/// every fork site cuts its branches with [`keep_last`].
fn ins_rec(ctx: &Ctx, t0: MemTree, trees: &[MemTree], cap: usize) -> Vec<InsBranch> {
    let Some((t1, rest)) = trees.split_first() else {
        return vec![InsBranch {
            model: MemModel { trees: vec![t0] },
            destroyed: Vec::new(),
            assumed_alias: None,
            assumptions: Vec::new(),
        }];
    };
    // Single-region inserts are the only callers, so the relation of t0
    // against t1 is its (first) region's relation.
    let r0 = *t0.regions.iter().next().expect("inserted tree has a region");
    let mut assumptions = Vec::new();
    let rel = region_vs_tree(ctx, &r0, t1, &mut assumptions);

    let with = |mut branches: Vec<InsBranch>, extra: &[Assumption]| -> Vec<InsBranch> {
        for b in &mut branches {
            b.assumptions.extend(extra.iter().cloned());
        }
        branches
    };

    match rel {
        RegionRel::Alias => {
            // insAL: merge node sets; reinsert the children of both.
            let merged_regions: BTreeSet<Region> =
                t0.regions.union(&t1.regions).cloned().collect();
            let mut branches = vec![InsBranch {
                model: t1.children.clone(),
                destroyed: Vec::new(),
                assumed_alias: None,
                assumptions: Vec::new(),
            }];
            for child in &t0.children.trees {
                let mut next = Vec::new();
                for b in branches {
                    for nb in ins_rec(ctx, child.clone(), &b.model.trees, cap) {
                        next.push(merge_effects(&b, nb));
                    }
                }
                branches = next;
                keep_last(&mut branches, cap);
            }
            let out: Vec<InsBranch> = branches
                .into_iter()
                .map(|b| InsBranch {
                    model: MemModel {
                        trees: std::iter::once(MemTree {
                            regions: merged_regions.clone(),
                            children: b.model,
                        })
                        .chain(rest.iter().cloned())
                        .collect(),
                    },
                    ..b
                })
                .collect();
            with(out, &assumptions)
        }
        RegionRel::Separate => {
            // insSEP: keep t1, insert into the rest.
            let out = ins_rec(ctx, t0, rest, cap)
                .into_iter()
                .map(|b| InsBranch {
                    model: MemModel {
                        trees: std::iter::once(t1.clone()).chain(b.model.trees).collect(),
                    },
                    ..b
                })
                .collect();
            with(out, &assumptions)
        }
        RegionRel::Enclosed => {
            // insENC: insert into t1's sub-forest.
            let out = ins_rec(ctx, t0, &t1.children.trees, cap)
                .into_iter()
                .map(|b| InsBranch {
                    model: MemModel {
                        trees: std::iter::once(MemTree {
                            regions: t1.regions.clone(),
                            children: b.model,
                        })
                        .chain(rest.iter().cloned())
                        .collect(),
                    },
                    ..b
                })
                .collect();
            with(out, &assumptions)
        }
        RegionRel::Encloses => {
            // insCON: t1 moves under t0; the combined tree is inserted
            // into the rest.
            let mut out = Vec::new();
            for b1 in ins_rec(ctx, t1.clone(), &t0.children.trees, cap) {
                let t = MemTree { regions: t0.regions.clone(), children: b1.model.clone() };
                for b2 in ins_rec(ctx, t, rest, cap) {
                    out.push(merge_effects(&b1, b2));
                }
            }
            keep_last(&mut out, cap);
            with(out, &assumptions)
        }
        RegionRel::Overlap => {
            // Definite partial overlap: destroy t1 (§1) and continue.
            let destroyed: Vec<Region> = t1.all_regions().into_iter().cloned().collect();
            let out = ins_rec(ctx, t0, rest, cap)
                .into_iter()
                .map(|mut b| {
                    b.destroyed.extend(destroyed.iter().cloned());
                    b
                })
                .collect();
            with(out, &assumptions)
        }
        RegionRel::Unknown => {
            let mut out = Vec::new();
            // (a) assumed-alias fork, for each same-sized top region.
            for r1 in &t1.regions {
                if r1.size == r0.size && t0.children.trees.is_empty() {
                    let merged: BTreeSet<Region> = t1
                        .regions
                        .iter()
                        .cloned()
                        .chain(std::iter::once(r0))
                        .collect();
                    out.push(InsBranch {
                        model: MemModel {
                            trees: std::iter::once(MemTree {
                                regions: merged,
                                children: t1.children.clone(),
                            })
                            .chain(rest.iter().cloned())
                            .collect(),
                        },
                        destroyed: Vec::new(),
                        assumed_alias: Some((r0, *r1)),
                        assumptions: Vec::new(),
                    });
                    break; // one alias fork suffices: node regions all alias
                }
            }
            // (b) assumed-separate fork.
            for b in ins_rec(ctx, t0.clone(), rest, cap) {
                out.push(InsBranch {
                    model: MemModel {
                        trees: std::iter::once(t1.clone()).chain(b.model.trees).collect(),
                    },
                    ..b
                });
            }
            // (c) assumed-enclosed fork (possible when t0's region can
            // fit inside some top-level region of t1).
            if t1.regions.iter().any(|r1| r0.size < r1.size) {
                for b in ins_rec(ctx, t0.clone(), &t1.children.trees, cap) {
                    out.push(InsBranch {
                        model: MemModel {
                            trees: std::iter::once(MemTree {
                                regions: t1.regions.clone(),
                                children: b.model,
                            })
                            .chain(rest.iter().cloned())
                            .collect(),
                        },
                        ..b
                    });
                }
            }
            // (d) assumed-encloses fork (t1 fits inside t0's region).
            if t0.children.trees.is_empty() && t1.regions.iter().all(|r1| r1.size < r0.size) {
                let t = MemTree {
                    regions: t0.regions.clone(),
                    children: MemModel { trees: vec![t1.clone()] },
                };
                out.extend(ins_rec(ctx, t, rest, cap));
            }
            // (e) destroy fork: covers partial overlap.
            let destroyed: Vec<Region> = t1.all_regions().into_iter().cloned().collect();
            for mut b in ins_rec(ctx, t0, rest, cap) {
                b.destroyed.extend(destroyed.iter().cloned());
                out.push(b);
            }
            keep_last(&mut out, cap);
            out
        }
    }
}

fn merge_effects(a: &InsBranch, mut b: InsBranch) -> InsBranch {
    b.destroyed.extend(a.destroyed.iter().cloned());
    if b.assumed_alias.is_none() {
        b.assumed_alias = a.assumed_alias;
    }
    b.assumptions.extend(a.assumptions.iter().cloned());
    b
}

impl fmt::Display for MemModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.trees.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for MemTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                write!(f, " ≡ ")?;
            }
            write!(f, "{r}")?;
        }
        if !self.children.trees.is_empty() {
            write!(f, " ⊇ {}", self.children)?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_expr::Expr;
    use hgl_x86::Reg;

    fn sym(r: Reg) -> Expr {
        Expr::sym(Sym::Init(r))
    }

    /// Example 3.8 / Figure 2: the three-instruction snippet produces
    /// the aliasing and non-aliasing models.
    #[test]
    fn example_3_8_memory_models() {
        let ctx = Ctx::new();
        let rdi8 = Region::new(sym(Reg::Rdi), 8);
        let rsi4 = Region::new(sym(Reg::Rsi).add(Expr::imm(4)), 4);
        let rsi8 = Region::new(sym(Reg::Rsi), 8);

        let m0 = MemModel::empty();
        let after1 = m0.insert(&ctx, rdi8);
        assert_eq!(after1.len(), 1, "insert into empty model is deterministic");

        // Insert [rsi+4, 4]: unknown vs [rdi, 8] (different params, no
        // same-size alias possible) → separate + destroy forks.
        let after2: Vec<InsBranch> = after1
            .iter()
            .flat_map(|b| b.model.insert(&ctx, rsi4))
            .collect();
        assert!(after2.len() >= 2);

        // Insert [rsi, 8] into each: in branches where [rsi+4,4]
        // survives, it must end up enclosed in [rsi, 8].
        // Figure 2a: {[rdi0,8] ≡ [rsi0,8]} with [rsi0+4,4] enclosed.
        // Figure 2b: [rdi0,8] ⊲⊳ [rsi0,8] with [rsi0+4,4] enclosed in
        // the latter. Both must appear among the produced models (other
        // fork combinations are allowed; some are vacuous).
        let mut fig2a = false;
        let mut fig2b = false;
        for b in &after2 {
            for b2 in b.model.insert(&ctx, rsi8) {
                let m = &b2.model;
                let enclosed = m.structural_relation(&rsi4, &rsi8) == Some(RegionRel::Enclosed);
                match m.structural_relation(&rdi8, &rsi8) {
                    Some(RegionRel::Alias) if enclosed => fig2a = true,
                    Some(RegionRel::Separate) if enclosed => fig2b = true,
                    _ => {}
                }
            }
        }
        assert!(fig2a, "figure 2a (aliasing) model produced");
        assert!(fig2b, "figure 2b (separate) model produced");
    }

    #[test]
    fn necessary_enclosure_single_branch() {
        let ctx = Ctx::new();
        let outer = Region::new(sym(Reg::Rsi), 8);
        let inner = Region::new(sym(Reg::Rsi).add(Expr::imm(4)), 4);
        let m = MemModel { trees: vec![MemTree::leaf(outer)] };
        let branches = m.insert(&ctx, inner);
        assert_eq!(branches.len(), 1, "necessary relation: no fork");
        assert_eq!(branches[0].model.structural_relation(&inner, &outer), Some(RegionRel::Enclosed));
    }

    #[test]
    fn necessary_separation_single_branch() {
        let ctx = Ctx::new();
        let a = Region::stack(-8, 8);
        let b = Region::stack(-16, 8);
        let m = MemModel { trees: vec![MemTree::leaf(a)] };
        let branches = m.insert(&ctx, b);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].model.structural_relation(&a, &b), Some(RegionRel::Separate));
        assert!(branches[0].destroyed.is_empty());
    }

    #[test]
    fn unknown_relation_forks_with_destroy() {
        let ctx = Ctx::new();
        let a = Region::new(sym(Reg::Rdi), 4);
        let b = Region::new(sym(Reg::Rsi), 4);
        let m = MemModel { trees: vec![MemTree::leaf(a)] };
        let branches = m.insert(&ctx, b);
        // alias + separate + destroy
        assert_eq!(branches.len(), 3);
        assert!(branches.iter().any(|br| br.assumed_alias.is_some()));
        assert!(branches.iter().any(|br| !br.destroyed.is_empty()));
        assert!(branches
            .iter()
            .any(|br| br.model.structural_relation(&a, &b) == Some(RegionRel::Separate)));
    }

    #[test]
    fn encloses_restructures() {
        let ctx = Ctx::new();
        let inner = Region::new(sym(Reg::Rsi).add(Expr::imm(4)), 4);
        let outer = Region::new(sym(Reg::Rsi), 8);
        let m = MemModel { trees: vec![MemTree::leaf(inner)] };
        let branches = m.insert(&ctx, outer);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].model.structural_relation(&inner, &outer), Some(RegionRel::Enclosed));
        assert_eq!(branches[0].model.trees.len(), 1);
    }

    #[test]
    fn structural_relation_wins_over_solver() {
        // After an assumed-alias fork, the model asserts rdi ≡ rsi even
        // though the solver cannot.
        let ctx = Ctx::new();
        let a = Region::new(sym(Reg::Rdi), 4);
        let b = Region::new(sym(Reg::Rsi), 4);
        let m = MemModel { trees: vec![MemTree::leaf(a)] };
        let alias = m.insert(&ctx, b)
            .into_iter()
            .find(|br| br.assumed_alias.is_some())
            .expect("alias fork");
        assert_eq!(alias.model.relation(&ctx, &a, &b).rel, RegionRel::Alias);
    }

    #[test]
    fn remove_region_promotes_children() {
        let inner = Region::stack(-8, 4);
        let outer = Region::stack(-8, 8);
        let m = MemModel {
            trees: vec![MemTree {
                regions: BTreeSet::from([outer]),
                children: MemModel { trees: vec![MemTree::leaf(inner)] },
            }],
        };
        let m2 = m.remove_region(&outer);
        assert_eq!(m2.trees.len(), 1);
        assert!(m2.trees[0].regions.contains(&inner));
    }

    #[test]
    fn join_keeps_shared_drops_disjoint() {
        // Example 3.13: both models share top node [rdi0, 8]; children
        // [rdi0, 4] and [rdi0+4, 4] differ → children join drops both
        // (no shared top region between the child trees).
        let top = Region::new(sym(Reg::Rdi), 8);
        let c0 = Region::new(sym(Reg::Rdi), 4);
        let c1 = Region::new(sym(Reg::Rdi).add(Expr::imm(4)), 4);
        let m0 = MemModel {
            trees: vec![MemTree {
                regions: BTreeSet::from([top]),
                children: MemModel { trees: vec![MemTree::leaf(c0)] },
            }],
        };
        let m1 = MemModel {
            trees: vec![MemTree {
                regions: BTreeSet::from([top]),
                children: MemModel { trees: vec![MemTree::leaf(c1)] },
            }],
        };
        let j = m0.join(&m1);
        assert_eq!(j.trees.len(), 1);
        assert!(j.trees[0].regions.contains(&top));
        // Unlike the paper's Example 3.13 (which keeps both children as
        // separate siblings), our conservative join drops unshared
        // children — sound, strictly less information.
        let solo = MemModel { trees: vec![MemTree::leaf(Region::stack(-64, 8))] };
        let j2 = m0.join(&solo);
        assert!(j2.trees.is_empty(), "one-sided trees dropped");
    }

    #[test]
    fn join_idempotent() {
        let top = Region::new(sym(Reg::Rdi), 8);
        let m = MemModel { trees: vec![MemTree::leaf(top)] };
        assert_eq!(m.join(&m), m);
    }

    #[test]
    fn holds_in_checks_definition_3_9() {
        let a = Region::new(sym(Reg::Rdi), 8);
        let b = Region::new(sym(Reg::Rsi), 8);
        // Model asserting a ⊲⊳ b.
        let sep = MemModel { trees: vec![MemTree::leaf(a), MemTree::leaf(b)] };
        let alias = MemModel {
            trees: vec![MemTree { regions: BTreeSet::from([a, b]), children: MemModel::default() }],
        };
        let disjoint_env = |s: Sym| match s {
            Sym::Init(Reg::Rdi) => 0x1000,
            Sym::Init(Reg::Rsi) => 0x2000,
            _ => 0,
        };
        let alias_env = |s: Sym| match s {
            Sym::Init(Reg::Rdi) | Sym::Init(Reg::Rsi) => 0x1000,
            _ => 0,
        };
        let overlap_env = |s: Sym| match s {
            Sym::Init(Reg::Rdi) => 0x1000,
            Sym::Init(Reg::Rsi) => 0x1004,
            _ => 0,
        };
        assert_eq!(sep.holds_in(&disjoint_env), Some(true));
        assert_eq!(sep.holds_in(&alias_env), Some(false));
        assert_eq!(sep.holds_in(&overlap_env), Some(false));
        assert_eq!(alias.holds_in(&alias_env), Some(true));
        assert_eq!(alias.holds_in(&disjoint_env), Some(false));
    }

    #[test]
    fn insert_unknown_address_destroys_all() {
        let ctx = Ctx::new();
        let m = MemModel { trees: vec![MemTree::leaf(Region::stack(-8, 8))] };
        let branches = m.insert(&ctx, Region::new(Expr::bottom(), 8));
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].destroyed.len(), 1);
    }

    /// Does branch `b` cover the concrete state `env`: its model holds
    /// there, and so does its assumed alias, if any?
    fn covers(b: &InsBranch, env: &impl Fn(Sym) -> u64) -> bool {
        let at = |r: &Region| r.addr.eval(env, &|_, _| None);
        let alias_holds = match &b.assumed_alias {
            Some((r0, r1)) => at(r0) == at(r1),
            None => true,
        };
        alias_holds && b.model.holds_in(env) == Some(true)
    }

    /// The fork cap keeps the catch-all, so every cap keeps a branch
    /// for each state the input holds in. Two hand-built inserts fork
    /// past small caps, one through each product site of `ins_rec`:
    ///
    /// - alias: `[rbx0,24] ⊇ {[rdi0,8], [rdx0,8]}` into
    ///   `[rbx0,24] ⊇ {[rsi0,8]}` merges the nodes and re-inserts both
    ///   children, 13 branches. The first 3 all assume `rdi0 == rsi0`.
    /// - encloses: `[rbx0,24] ⊇ {[rdi0,8]}` into `{[rbx0+8,8]},
    ///   {[rsi0,8]}` moves `[rbx0+8,8]` under it, 6 branches. The first
    ///   2 assume `rbx0+8 == rdi0`.
    ///
    /// Each state puts every initial register at 0x1000 plus the offset
    /// listed for it (0 if none); both inputs hold in each of them.
    #[test]
    fn fork_cap_keeps_the_catch_all() {
        let ctx = Ctx::new();
        let r = |reg: Reg, off: u64, size: u64| Region::new(sym(reg).add(Expr::imm(off)), size);
        let tree = |region: Region, children: Vec<MemTree>| MemTree {
            regions: BTreeSet::from([region]),
            children: MemModel { trees: children },
        };
        let leaf = |reg: Reg| MemTree::leaf(r(reg, 0, 8));
        let cases = [
            (
                tree(r(Reg::Rbx, 0, 24), vec![leaf(Reg::Rdi), leaf(Reg::Rdx)]),
                vec![tree(r(Reg::Rbx, 0, 24), vec![leaf(Reg::Rsi)])],
                13,
                vec![[(Reg::Rdi, 8), (Reg::Rdx, 16)], [(Reg::Rdi, 8), (Reg::Rdx, 0)]],
            ),
            (
                tree(r(Reg::Rbx, 0, 24), vec![leaf(Reg::Rdi)]),
                vec![MemTree::leaf(r(Reg::Rbx, 8, 8)), leaf(Reg::Rsi)],
                6,
                vec![[(Reg::Rdi, 0), (Reg::Rsi, 16)]],
            ),
        ];
        for (t0, forest, forks, states) in cases {
            let uncapped = ins_rec(&ctx, t0.clone(), &forest, usize::MAX);
            assert_eq!(uncapped.len(), forks);
            let catch_all = uncapped.last().expect("branches");
            assert_eq!(catch_all.assumed_alias, None);
            for state in states {
                let env = move |s: Sym| {
                    let off = |reg| state.iter().find(|(g, _)| *g == reg).map_or(0, |(_, o)| *o);
                    match s {
                        Sym::Init(reg) => 0x1000 + off(reg),
                        _ => 0,
                    }
                };
                for cap in 1..=forks {
                    let capped = ins_rec(&ctx, t0.clone(), &forest, cap);
                    assert!(capped.iter().any(|b| covers(b, &env)), "cap {cap} lost {state:?}");
                }
            }
            let capped = ins_rec(&ctx, t0, &forest, 3);
            let kept = capped.last().expect("branches");
            assert_eq!(kept.assumed_alias, None);
            assert_eq!(kept.model, catch_all.model);
            assert_eq!(kept.destroyed, catch_all.destroyed);
        }
    }

    /// The paper's §1 destroy-only policy is the fork cap at 1: an
    /// unknown-relation insert keeps exactly the catch-all, every tree
    /// destroyed and no alias assumed.
    #[test]
    fn cap_one_keeps_only_the_destroy_branch() {
        let ctx = Ctx::new();
        let region = |r: Reg| Region::new(sym(r), 8);
        let forest = [MemTree::leaf(region(Reg::Rdi)), MemTree::leaf(region(Reg::Rsi))];
        let inserted = MemTree::leaf(region(Reg::Rdx));
        let uncapped = ins_rec(&ctx, inserted.clone(), &forest, usize::MAX);
        assert!(uncapped.len() > 1, "the insert forks");
        let branches = ins_rec(&ctx, inserted.clone(), &forest, 1);
        assert_eq!(branches.len(), 1);
        let b = &branches[0];
        assert_eq!(b.assumed_alias, None);
        assert_eq!(b.model, MemModel { trees: vec![inserted] });
        let destroyed: BTreeSet<Region> = b.destroyed.iter().copied().collect();
        assert_eq!(destroyed, BTreeSet::from([region(Reg::Rdi), region(Reg::Rsi)]));
    }

    /// Insert `r` into `m` under a fresh query cache; returns the
    /// branches and the number of solver questions asked (hits plus
    /// misses).
    fn insert_counting(m: &MemModel, r: Region) -> (Vec<InsBranch>, u64) {
        let cache = std::sync::Arc::new(hgl_solver::QueryCache::new());
        let ctx = Ctx::new().with_cache(std::sync::Arc::clone(&cache));
        let branches = m.insert(&ctx, r);
        let stats = cache.stats();
        (branches, stats.hits + stats.misses)
    }

    #[test]
    fn insert_asks_one_question_per_separate_leaf_tree() {
        for n in [1usize, 4, 12] {
            let trees = (1..=n as i64).map(|i| MemTree::leaf(Region::stack(-16 * i, 8))).collect();
            let m = MemModel { trees };
            let (branches, asked) = insert_counting(&m, Region::stack(8, 8));
            assert_eq!(asked, n as u64, "{n} separate leaf trees");
            assert_eq!(branches.len(), 1);
            assert_eq!(branches[0].model.trees.len(), n + 1);
        }
    }

    #[test]
    fn separate_check_appends_node_then_descendant_answers() {
        // [rdi0, 16] encloses [rdi0, 8] and [rdi0 + 8, 8]. A stack slot
        // is separate from all three by the caller-vs-frame assumption:
        // one question per region, assumptions in `all_regions` order.
        let node = Region::new(sym(Reg::Rdi), 16);
        let lo = Region::new(sym(Reg::Rdi), 8);
        let hi = Region::new(sym(Reg::Rdi).add(Expr::imm(8)), 8);
        let children = MemModel { trees: vec![MemTree::leaf(lo), MemTree::leaf(hi)] };
        let m = MemModel { trees: vec![MemTree { regions: BTreeSet::from([node]), children }] };
        let slot = Region::stack(-8, 8);
        let (branches, asked) = insert_counting(&m, slot);
        assert_eq!(asked, 3);
        assert_eq!(branches.len(), 1);
        let assumed: Vec<(hgl_solver::AssumptionKind, Region, Region)> =
            branches[0].assumptions.iter().map(|a| (a.kind, a.r0, a.r1)).collect();
        let frame = hgl_solver::AssumptionKind::CallerVsFrame;
        assert_eq!(assumed, vec![(frame, slot, node), (frame, slot, lo), (frame, slot, hi)]);
    }
}
