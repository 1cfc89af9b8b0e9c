//! Encoders/decoders for the domain structures a durable session
//! persists.
//!
//! Every encoder is deterministic: hash-map-backed structures are
//! sorted before encoding, floats are written bit-exactly, and each
//! decoder rebuilds through the owning crate's constructors-from-parts
//! so the restored value is behaviorally identical to the captured one
//! (per-entity adjacency order, epoch fences, taint flags and all).
//! Decoders validate interned-id ranges as they go — a corrupt id is a
//! typed [`StoreError::Corrupt`], never a later panic.

use crate::codec::{Reader, Writer};
use crate::{Result, StoreError};
use em_blocking::{CanopyMemo, CanopyParams};
use em_core::entity::{AttrId, TypeId};
use em_core::framework::{
    CertificateBank, CertificateSet, MemoBank, MessageStore, ProbeMemo, WarmStart,
};
use em_core::{
    Cover, Dataset, EntityId, EntityStore, Evidence, Pair, PairCache, PairSet, RelationStore,
    Score, SimLevel,
};
use em_shard::{PlacementUnit, ShardPlan, SplitPolicy};
use em_similarity::{FeatureCache, FeatureConfig, FeatureVec, NameKey, TokenInterner};

fn corrupt(context: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        context: context.into(),
    }
}

/// A memo-bank entry flattened for sorted, deterministic encoding.
type MemoBankEntry = (Vec<EntityId>, Vec<(Pair, SimLevel)>, ProbeMemo, bool);

/// A certificate-bank entry flattened for sorted, deterministic
/// encoding.
type CertificateBankEntry = (Vec<EntityId>, Vec<(Pair, Score)>);

// ---------------------------------------------------------------- pairs

/// Encode one pair as its two entity ids (lo, hi).
pub fn encode_pair(w: &mut Writer, p: Pair) {
    w.u32(p.lo().0);
    w.u32(p.hi().0);
}

/// Decode one pair.
pub fn decode_pair(r: &mut Reader<'_>) -> Result<Pair> {
    let lo = r.u32("pair lo")?;
    let hi = r.u32("pair hi")?;
    Ok(Pair::new(EntityId(lo), EntityId(hi)))
}

/// Encode a list of pairs with a length prefix.
pub fn encode_pairs(w: &mut Writer, pairs: &[Pair]) {
    w.usize(pairs.len());
    for &p in pairs {
        encode_pair(w, p);
    }
}

/// Decode a length-prefixed list of pairs.
pub fn decode_pairs(r: &mut Reader<'_>) -> Result<Vec<Pair>> {
    let n = r.len(8, "pair list")?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push(decode_pair(r)?);
    }
    Ok(pairs)
}

/// Encode a pair set (sorted, so the encoding is deterministic).
pub fn encode_pair_set(w: &mut Writer, set: &PairSet) {
    encode_pairs(w, &set.to_sorted_vec());
}

/// Decode a pair set.
pub fn decode_pair_set(r: &mut Reader<'_>) -> Result<PairSet> {
    Ok(decode_pairs(r)?.into_iter().collect())
}

fn encode_u32s(w: &mut Writer, v: &[u32]) {
    w.usize(v.len());
    for &x in v {
        w.u32(x);
    }
}

fn decode_u32s(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<u32>> {
    let n = r.len(4, context)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.u32(context)?);
    }
    Ok(v)
}

fn encode_u64s(w: &mut Writer, v: &[u64]) {
    w.usize(v.len());
    for &x in v {
        w.u64(x);
    }
}

fn decode_u64s(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<u64>> {
    let n = r.len(8, context)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.u64(context)?);
    }
    Ok(v)
}

fn encode_usizes(w: &mut Writer, v: &[usize]) {
    w.usize(v.len());
    for &x in v {
        w.usize(x);
    }
}

fn decode_usizes(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<usize>> {
    let n = r.len(8, context)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.usize(context)?);
    }
    Ok(v)
}

fn encode_entity_ids(w: &mut Writer, v: &[EntityId]) {
    w.usize(v.len());
    for &e in v {
        w.u32(e.0);
    }
}

fn decode_entity_ids(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<EntityId>> {
    Ok(decode_u32s(r, context)?.into_iter().map(EntityId).collect())
}

/// Encode `(pair, level)` annotations with a length prefix.
pub fn encode_pair_levels(w: &mut Writer, v: &[(Pair, SimLevel)]) {
    w.usize(v.len());
    for &(p, level) in v {
        encode_pair(w, p);
        w.u8(level.0);
    }
}

/// Decode `(pair, level)` annotations.
pub fn decode_pair_levels(r: &mut Reader<'_>) -> Result<Vec<(Pair, SimLevel)>> {
    let n = r.len(9, "pair-level list")?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let p = decode_pair(r)?;
        v.push((p, SimLevel(r.u8("sim level")?)));
    }
    Ok(v)
}

// -------------------------------------------------------------- dataset

/// Encode an entity store: interned vocabularies in id order, then
/// every id slot (type, tombstone flag, attributes).
pub fn encode_entity_store(w: &mut Writer, store: &EntityStore) {
    let types: Vec<&str> = store.type_names().collect();
    w.usize(types.len());
    for name in &types {
        w.str(name);
    }
    let attrs: Vec<&str> = store.attr_names().collect();
    w.usize(attrs.len());
    for name in &attrs {
        w.str(name);
    }
    w.usize(store.len());
    for i in 0..store.len() as u32 {
        let e = EntityId(i);
        w.u16(store.entity_type(e).0);
        w.bool(store.is_retracted(e));
        let entity_attrs: Vec<(AttrId, &str)> = store.attributes(e).iter().collect();
        w.usize(entity_attrs.len());
        for (attr, value) in entity_attrs {
            w.u16(attr.0);
            w.str(value);
        }
    }
}

/// Decode an entity store, rebuilding interners in id order so every
/// [`TypeId`] / [`AttrId`] comes out identical.
pub fn decode_entity_store(r: &mut Reader<'_>) -> Result<EntityStore> {
    let mut store = EntityStore::new();
    let type_count = r.len(1, "type names")?;
    for _ in 0..type_count {
        store.intern_type(r.str("type name")?);
    }
    let attr_count = r.len(1, "attr names")?;
    for _ in 0..attr_count {
        store.intern_attr(r.str("attr name")?);
    }
    let entities = r.len(3, "entity slots")?;
    for _ in 0..entities {
        let ty = r.u16("entity type")?;
        if ty as usize >= type_count {
            return Err(corrupt(format!("entity type id {ty} out of range")));
        }
        let e = store.add_entity(TypeId(ty));
        let retracted = r.bool("entity tombstone")?;
        let n_attrs = r.len(3, "entity attrs")?;
        for _ in 0..n_attrs {
            let attr = r.u16("attr id")?;
            if attr as usize >= attr_count {
                return Err(corrupt(format!("attr id {attr} out of range")));
            }
            let value = r.str("attr value")?;
            store.set_attr(e, AttrId(attr), value);
        }
        if retracted {
            store.retract(e);
        }
    }
    Ok(store)
}

/// Encode a relation store: per relation, its declaration plus its
/// tuple list in stored order (order is part of the store's observable
/// behavior — adjacency lists follow it).
pub fn encode_relation_store(w: &mut Writer, store: &RelationStore) {
    w.usize(store.len());
    for rel in store.ids() {
        w.str(store.name(rel));
        w.bool(store.is_symmetric(rel));
        let tuples = store.tuples(rel);
        w.usize(tuples.len());
        for &(a, b) in tuples {
            w.u32(a.0);
            w.u32(b.0);
        }
    }
}

/// Decode a relation store by replaying declarations and tuples in
/// stored order — exact, because insertion order determines adjacency
/// order and removal preserves relative order.
pub fn decode_relation_store(r: &mut Reader<'_>) -> Result<RelationStore> {
    let mut store = RelationStore::new();
    let relations = r.len(1, "relations")?;
    for _ in 0..relations {
        let name = r.str("relation name")?.to_owned();
        let symmetric = r.bool("relation symmetry")?;
        let rel = store.declare(&name, symmetric);
        let tuples = r.len(8, "relation tuples")?;
        for _ in 0..tuples {
            let a = EntityId(r.u32("tuple a")?);
            let b = EntityId(r.u32("tuple b")?);
            if !store.add_tuple(rel, a, b) {
                return Err(corrupt(format!(
                    "duplicate tuple ({a}, {b}) in relation {name}"
                )));
            }
        }
    }
    Ok(store)
}

/// Encode a complete dataset: entities, relations, and the per-entity
/// candidate adjacency (whose order is behaviorally observable through
/// `View::candidate_pairs`).
pub fn encode_dataset(w: &mut Writer, dataset: &Dataset) {
    encode_entity_store(w, &dataset.entities);
    encode_relation_store(w, &dataset.relations);
    w.usize(dataset.entities.len());
    for i in 0..dataset.entities.len() as u32 {
        let neighbors = dataset.sim_neighbors(EntityId(i));
        w.usize(neighbors.len());
        for &(other, level) in neighbors {
            w.u32(other.0);
            w.u8(level.0);
        }
    }
}

/// Decode a complete dataset.
pub fn decode_dataset(r: &mut Reader<'_>) -> Result<Dataset> {
    let entities = decode_entity_store(r)?;
    let relations = decode_relation_store(r)?;
    let slots = r.len(8, "sim adjacency")?;
    let mut sim_adj: Vec<Vec<(EntityId, SimLevel)>> = Vec::with_capacity(slots);
    for _ in 0..slots {
        let n = r.len(5, "sim neighbors")?;
        let mut neighbors = Vec::with_capacity(n);
        for _ in 0..n {
            let other = EntityId(r.u32("sim neighbor")?);
            let level = SimLevel(r.u8("sim level")?);
            if level.0 < 1 {
                return Err(corrupt("similarity level 0 in adjacency"));
            }
            neighbors.push((other, level));
        }
        sim_adj.push(neighbors);
    }
    // Symmetry is asserted by the installer; map the panic to a typed
    // error by pre-checking here.
    for (i, neighbors) in sim_adj.iter().enumerate() {
        for &(other, level) in neighbors {
            let ok = sim_adj
                .get(other.index())
                .is_some_and(|adj| adj.contains(&(EntityId(i as u32), level)));
            if !ok {
                return Err(corrupt(format!(
                    "asymmetric candidate adjacency at (e{i}, {other})"
                )));
            }
        }
    }
    let mut dataset = Dataset::new();
    dataset.entities = entities;
    dataset.relations = relations;
    dataset.restore_sim_adjacency(sim_adj);
    Ok(dataset)
}

// ---------------------------------------------------------------- cover

/// Encode a cover as its neighborhood member lists in id order.
pub fn encode_cover(w: &mut Writer, cover: &Cover) {
    w.usize(cover.len());
    for id in cover.ids() {
        encode_entity_ids(w, cover.members(id));
    }
}

/// Decode a cover (members are already sorted/deduplicated, so
/// `from_neighborhoods` reproduces it exactly).
pub fn decode_cover(r: &mut Reader<'_>) -> Result<Cover> {
    let n = r.len(8, "cover")?;
    let mut neighborhoods = Vec::with_capacity(n);
    for _ in 0..n {
        let members = decode_entity_ids(r, "cover members")?;
        if members.is_empty() {
            return Err(corrupt("empty neighborhood in cover"));
        }
        neighborhoods.push(members);
    }
    Ok(Cover::from_neighborhoods(neighborhoods))
}

// ------------------------------------------------------------- evidence

/// Encode evidence including its epoch history, so a restored
/// accumulator answers `delta_since`/`retractions_since` exactly like
/// the live one.
pub fn encode_evidence(w: &mut Writer, ev: &Evidence) {
    w.bool(ev.is_tracked());
    encode_pair_set(w, &ev.positive);
    encode_pair_set(w, &ev.negative);
    let (log, epoch_starts, retract_log, retract_epoch_starts) = ev.epoch_parts();
    encode_pairs(w, log);
    encode_usizes(w, epoch_starts);
    encode_pairs(w, retract_log);
    encode_usizes(w, retract_epoch_starts);
}

/// Decode evidence. Tracked evidence is rebuilt with its full epoch
/// history (and re-validated against the positive set); untracked
/// evidence just carries its sets.
pub fn decode_evidence(r: &mut Reader<'_>) -> Result<Evidence> {
    let tracked = r.bool("evidence tracked")?;
    let positive = decode_pair_set(r)?;
    let negative = decode_pair_set(r)?;
    let log = decode_pairs(r)?;
    let epoch_starts = decode_usizes(r, "epoch starts")?;
    let retract_log = decode_pairs(r)?;
    let retract_epoch_starts = decode_usizes(r, "retract epoch starts")?;
    if !tracked {
        return Ok(Evidence::untracked(positive, negative));
    }
    if epoch_starts.is_empty() || epoch_starts.len() != retract_epoch_starts.len() {
        return Err(corrupt("inconsistent evidence epoch fences"));
    }
    if epoch_starts.iter().any(|&s| s > log.len())
        || retract_epoch_starts.iter().any(|&s| s > retract_log.len())
    {
        return Err(corrupt("evidence epoch fence beyond its log"));
    }
    // `from_epoch_parts` panics on replay divergence; pre-validate by
    // replaying here so corruption surfaces as a typed error.
    let probe = Evidence::from_parts(positive.clone(), negative.clone());
    drop(probe);
    let replayed: PairSet = {
        let mut set = PairSet::new();
        let epochs = epoch_starts.len();
        for e in 0..epochs {
            let ins_end = epoch_starts.get(e + 1).copied().unwrap_or(log.len());
            for &p in &log[epoch_starts[e]..ins_end] {
                set.insert(p);
            }
            let ret_end = retract_epoch_starts
                .get(e + 1)
                .copied()
                .unwrap_or(retract_log.len());
            for &p in &retract_log[retract_epoch_starts[e]..ret_end] {
                set.remove(p);
            }
        }
        set
    };
    if replayed != positive {
        return Err(corrupt("evidence epoch history does not replay"));
    }
    Ok(Evidence::from_epoch_parts(
        positive,
        negative,
        log,
        epoch_starts,
        retract_log,
        retract_epoch_starts,
    ))
}

// ---------------------------------------------------------- pair cache

/// Encode a blocking score cache: cached `(pair, score)` entries plus
/// the persistent suppression list, both sorted. Hit/miss counters are
/// diagnostics, not state, and are not persisted.
pub fn encode_score_cache(w: &mut Writer, cache: &PairCache<f64>) {
    let mut entries: Vec<(Pair, f64)> = Vec::with_capacity(cache.len());
    cache.for_each_entry(|p, v| entries.push((p, v)));
    entries.sort_unstable_by_key(|a| a.0);
    w.usize(entries.len());
    for (p, v) in entries {
        encode_pair(w, p);
        w.f64(v);
    }
    encode_pairs(w, &cache.suppressed_pairs());
}

/// Decode a blocking score cache.
pub fn decode_score_cache(r: &mut Reader<'_>) -> Result<PairCache<f64>> {
    let cache: PairCache<f64> = PairCache::new();
    let n = r.len(16, "score cache")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let p = decode_pair(r)?;
        entries.push((p, r.f64("score")?));
    }
    for p in decode_pairs(r)? {
        cache.suppress(p);
    }
    for (p, v) in entries {
        cache.insert(p, v);
    }
    Ok(cache)
}

// -------------------------------------------------- warm-start machinery

/// Encode a message store as its messages in canonical order
/// (members sorted within each message, messages sorted).
pub fn encode_message_store(w: &mut Writer, store: &MessageStore) {
    // Canonical: messages are *sets* of pairs, but the store keeps
    // members in merge order and roots by merge history. Sort both so
    // the encoding (and therefore the state digest over it) is a pure
    // function of the message sets — two stores holding the same
    // messages via different merge histories must encode identically.
    let mut messages: Vec<Vec<Pair>> = store
        .roots()
        .into_iter()
        .map(|root| {
            let mut members = store.message(root).expect("root has members").to_vec();
            members.sort_unstable();
            members
        })
        .collect();
    messages.sort_unstable();
    w.usize(messages.len());
    for members in messages {
        encode_pairs(w, &members);
    }
}

/// Decode a message store by replaying `add_message` over the encoded
/// messages in their (sorted) order: each one re-forms one disjoint
/// union-find tree, so the decoded store holds exactly those messages.
pub fn decode_message_store(r: &mut Reader<'_>) -> Result<MessageStore> {
    let mut store = MessageStore::new();
    let n = r.len(8, "message store")?;
    for _ in 0..n {
        let members = decode_pairs(r)?;
        if members.is_empty() {
            return Err(corrupt("empty message in store"));
        }
        store.add_message(&members);
    }
    Ok(store)
}

/// Encode a probe memo (entailed entries sorted by pair).
pub fn encode_probe_memo(w: &mut Writer, memo: &ProbeMemo) {
    w.bool(memo.is_visited());
    w.bool(memo.is_from_bank());
    encode_pairs(w, memo.undecided());
    let mut entailed: Vec<(Pair, Vec<Pair>)> = Vec::with_capacity(memo.entries());
    memo.for_each_entailed(|p, pairs| entailed.push((p, pairs.to_vec())));
    entailed.sort_unstable_by_key(|a| a.0);
    w.usize(entailed.len());
    for (p, pairs) in entailed {
        encode_pair(w, p);
        encode_pairs(w, &pairs);
    }
}

/// Decode a probe memo.
pub fn decode_probe_memo(r: &mut Reader<'_>) -> Result<ProbeMemo> {
    let visited = r.bool("memo visited")?;
    let from_bank = r.bool("memo from_bank")?;
    let undecided = decode_pairs(r)?;
    let n = r.len(8, "memo entailed")?;
    let mut entailed = Vec::with_capacity(n);
    for _ in 0..n {
        let p = decode_pair(r)?;
        entailed.push((p, decode_pairs(r)?));
    }
    Ok(ProbeMemo::from_parts(
        visited, from_bank, undecided, entailed,
    ))
}

/// Encode a memo bank (entries sorted by member key).
pub fn encode_memo_bank(w: &mut Writer, bank: &MemoBank) {
    let mut entries: Vec<MemoBankEntry> = Vec::with_capacity(bank.len());
    bank.for_each_entry(|members, pairs, memo, tainted| {
        entries.push((members.to_vec(), pairs.to_vec(), memo.clone(), tainted));
    });
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    w.usize(entries.len());
    for (members, pairs, memo, tainted) in entries {
        encode_entity_ids(w, &members);
        encode_pair_levels(w, &pairs);
        encode_probe_memo(w, &memo);
        w.bool(tainted);
    }
}

/// Decode a memo bank.
pub fn decode_memo_bank(r: &mut Reader<'_>) -> Result<MemoBank> {
    let mut bank = MemoBank::new();
    let n = r.len(8, "memo bank")?;
    for _ in 0..n {
        let members = decode_entity_ids(r, "bank members")?;
        let pairs = decode_pair_levels(r)?;
        let memo = decode_probe_memo(r)?;
        let tainted = r.bool("bank tainted")?;
        bank.insert_raw(members, pairs, memo, tainted);
    }
    Ok(bank)
}

/// Encode a certificate bank (entries sorted by member key, gaps
/// sorted by pair).
pub fn encode_certificate_bank(w: &mut Writer, bank: &CertificateBank) {
    let mut entries: Vec<CertificateBankEntry> = Vec::with_capacity(bank.len());
    bank.for_each_entry(|members, set| {
        let mut gaps: Vec<(Pair, Score)> = Vec::with_capacity(set.len());
        set.for_each(|p, gap| gaps.push((p, gap)));
        gaps.sort_unstable_by_key(|a| a.0);
        entries.push((members.to_vec(), gaps));
    });
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    w.usize(entries.len());
    for (members, gaps) in entries {
        encode_entity_ids(w, &members);
        w.usize(gaps.len());
        for (p, gap) in gaps {
            encode_pair(w, p);
            w.i64(gap.0);
        }
    }
}

/// Decode a certificate bank.
pub fn decode_certificate_bank(r: &mut Reader<'_>) -> Result<CertificateBank> {
    let mut bank = CertificateBank::new();
    let n = r.len(8, "certificate bank")?;
    for _ in 0..n {
        let members = decode_entity_ids(r, "certificate members")?;
        let gaps = r.len(16, "certificate gaps")?;
        let mut set = CertificateSet::new();
        for _ in 0..gaps {
            let p = decode_pair(r)?;
            set.record(p, Score(r.i64("certificate gap")?));
        }
        bank.insert_raw(members, set);
    }
    Ok(bank)
}

/// Encode a complete warm start (bank + certificates + message store +
/// entity floor).
pub fn encode_warm_start(w: &mut Writer, warm: &WarmStart) {
    encode_memo_bank(w, &warm.bank);
    encode_certificate_bank(w, &warm.certs);
    encode_message_store(w, &warm.store);
    w.u32(warm.entity_floor);
}

/// Decode a complete warm start.
pub fn decode_warm_start(r: &mut Reader<'_>) -> Result<WarmStart> {
    Ok(WarmStart {
        bank: decode_memo_bank(r)?,
        certs: decode_certificate_bank(r)?,
        store: decode_message_store(r)?,
        entity_floor: r.u32("entity floor")?,
    })
}

// ---------------------------------------------------------- canopy memo

/// Encode a canopy memo (canopies sorted by center).
pub fn encode_canopy_memo(w: &mut Writer, memo: &CanopyMemo) {
    match memo.params() {
        Some(p) => {
            w.bool(true);
            w.usize(p.ngram);
            w.f64(p.loose);
            w.f64(p.tight);
        }
        None => w.bool(false),
    }
    let mut canopies: Vec<(EntityId, Vec<(EntityId, bool)>)> = Vec::with_capacity(memo.len());
    memo.for_each_canopy(|center, members| canopies.push((center, members.to_vec())));
    canopies.sort_unstable_by_key(|&(center, _)| center);
    w.usize(canopies.len());
    for (center, members) in canopies {
        w.u32(center.0);
        w.usize(members.len());
        for (e, tight) in members {
            w.u32(e.0);
            w.bool(tight);
        }
    }
}

/// Decode a canopy memo.
pub fn decode_canopy_memo(r: &mut Reader<'_>) -> Result<CanopyMemo> {
    let params = if r.bool("canopy params present")? {
        Some(CanopyParams {
            ngram: r.usize("canopy ngram")?,
            loose: r.f64("canopy loose")?,
            tight: r.f64("canopy tight")?,
        })
    } else {
        None
    };
    let n = r.len(8, "canopy memo")?;
    let mut canopies = Vec::with_capacity(n);
    for _ in 0..n {
        let center = EntityId(r.u32("canopy center")?);
        let m = r.len(5, "canopy members")?;
        let mut members = Vec::with_capacity(m);
        for _ in 0..m {
            let e = EntityId(r.u32("canopy member")?);
            members.push((e, r.bool("canopy tight flag")?));
        }
        canopies.push((center, members));
    }
    Ok(CanopyMemo::from_parts(params, canopies))
}

// ----------------------------------------------------------- shard plan

fn encode_neighborhood_ids(w: &mut Writer, v: &[em_core::NeighborhoodId]) {
    w.usize(v.len());
    for id in v {
        w.u32(id.0);
    }
}

fn decode_neighborhood_ids(
    r: &mut Reader<'_>,
    context: &'static str,
) -> Result<Vec<em_core::NeighborhoodId>> {
    Ok(decode_u32s(r, context)?
        .into_iter()
        .map(em_core::NeighborhoodId)
        .collect())
}

/// Encode a shard plan, including the measured per-neighborhood costs
/// it was built from (what re-planning reads).
pub fn encode_shard_plan(w: &mut Writer, plan: &ShardPlan) {
    w.usize(plan.components.len());
    for c in &plan.components {
        encode_neighborhood_ids(w, c);
    }
    encode_u64s(w, &plan.component_cost);
    w.usize(plan.units.len());
    for unit in &plan.units {
        encode_neighborhood_ids(w, &unit.neighborhoods);
        w.u64(unit.cost);
        w.usize(unit.component);
        w.bool(unit.split);
    }
    encode_usizes(w, &plan.unit_shard);
    w.usize(plan.shards.len());
    for s in &plan.shards {
        encode_neighborhood_ids(w, s);
    }
    encode_u64s(w, &plan.shard_cost);
    w.usize(plan.split_components);
    w.usize(plan.pinned_components);
    encode_u64s(w, &plan.costs);
    w.u8(match plan.policy {
        SplitPolicy::Pin => 0,
        SplitPolicy::Split => 1,
    });
}

/// Decode a shard plan.
pub fn decode_shard_plan(r: &mut Reader<'_>) -> Result<ShardPlan> {
    let n = r.len(8, "plan components")?;
    let mut components = Vec::with_capacity(n);
    for _ in 0..n {
        components.push(decode_neighborhood_ids(r, "plan component")?);
    }
    let component_cost = decode_u64s(r, "component cost")?;
    let n = r.len(8, "plan units")?;
    let mut units = Vec::with_capacity(n);
    for _ in 0..n {
        units.push(PlacementUnit {
            neighborhoods: decode_neighborhood_ids(r, "unit neighborhoods")?,
            cost: r.u64("unit cost")?,
            component: r.usize("unit component")?,
            split: r.bool("unit split")?,
        });
    }
    let unit_shard = decode_usizes(r, "unit shard")?;
    let n = r.len(8, "plan shards")?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(decode_neighborhood_ids(r, "shard members")?);
    }
    let shard_cost = decode_u64s(r, "shard cost")?;
    let split_components = r.usize("split components")?;
    let pinned_components = r.usize("pinned components")?;
    let costs = decode_u64s(r, "plan costs")?;
    let policy = match r.u8("split policy")? {
        0 => SplitPolicy::Pin,
        1 => SplitPolicy::Split,
        other => return Err(corrupt(format!("unknown split policy tag {other}"))),
    };
    Ok(ShardPlan {
        components,
        component_cost,
        units,
        unit_shard,
        shards,
        shard_cost,
        split_components,
        pinned_components,
        costs,
        policy,
    })
}

// -------------------------------------------------------- feature cache

fn encode_interner(w: &mut Writer, interner: &TokenInterner) {
    w.usize(interner.len());
    for id in 0..interner.len() as u32 {
        w.str(interner.resolve(id));
    }
}

fn decode_interner(r: &mut Reader<'_>) -> Result<TokenInterner> {
    let mut interner = TokenInterner::new();
    let n = r.len(8, "interner")?;
    for i in 0..n {
        let id = interner.intern(r.str("interned string")?);
        if id as usize != i {
            return Err(corrupt("duplicate string in interner encoding"));
        }
    }
    Ok(interner)
}

fn encode_feature_vec(w: &mut Writer, fv: &FeatureVec) {
    w.str(&fv.key);
    w.str(&fv.name.first);
    w.str(&fv.name.last);
    encode_u32s(w, &fv.tokens);
    encode_u32s(w, &fv.grams);
    w.usize(fv.tfidf.len());
    for &(t, weight) in &fv.tfidf {
        w.u32(t);
        w.f64(weight);
    }
    w.f64(fv.norm);
}

fn decode_feature_vec(r: &mut Reader<'_>) -> Result<FeatureVec> {
    let key = r.str("feature key")?.to_owned();
    let first = r.str("name first")?.to_owned();
    let last = r.str("name last")?.to_owned();
    let tokens = decode_u32s(r, "feature tokens")?;
    let grams = decode_u32s(r, "feature grams")?;
    let n = r.len(12, "feature tfidf")?;
    let mut tfidf = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.u32("tfidf token")?;
        tfidf.push((t, r.f64("tfidf weight")?));
    }
    let norm = r.f64("feature norm")?;
    Ok(FeatureVec {
        key,
        name: NameKey { first, last },
        tokens,
        grams,
        tfidf,
        norm,
    })
}

/// Encode a feature cache: config, both vocabularies in id order, the
/// dense per-entity slots, the document count, and the per-token
/// document frequencies.
pub fn encode_feature_cache(w: &mut Writer, cache: &FeatureCache) {
    w.usize(cache.config().ngram);
    encode_interner(w, cache.token_interner());
    encode_interner(w, cache.gram_interner());
    w.usize(cache.universe());
    for i in 0..cache.universe() as u32 {
        match cache.get(EntityId(i)) {
            Some(fv) => {
                w.bool(true);
                encode_feature_vec(w, fv);
            }
            None => w.bool(false),
        }
    }
    w.usize(cache.len());
    let doc_freq = cache.doc_freq();
    encode_u32s(w, doc_freq);
}

/// Decode a feature cache.
pub fn decode_feature_cache(r: &mut Reader<'_>) -> Result<FeatureCache> {
    let ngram = r.usize("feature ngram")?;
    let tokens = decode_interner(r)?;
    let grams = decode_interner(r)?;
    let universe = r.len(1, "feature universe")?;
    let mut features: Vec<Option<FeatureVec>> = Vec::with_capacity(universe);
    let mut documents_seen = 0usize;
    for _ in 0..universe {
        if r.bool("feature present")? {
            let fv = decode_feature_vec(r)?;
            if fv.tokens.iter().any(|&t| t as usize >= tokens.len())
                || fv.grams.iter().any(|&g| g as usize >= grams.len())
            {
                return Err(corrupt("feature vector references unknown interned id"));
            }
            features.push(Some(fv));
            documents_seen += 1;
        } else {
            features.push(None);
        }
    }
    let documents = r.usize("feature documents")?;
    if documents != documents_seen {
        return Err(corrupt(format!(
            "document count {documents} disagrees with {documents_seen} present features"
        )));
    }
    let doc_freq = decode_u32s(r, "doc freq")?;
    if doc_freq.len() != tokens.len() {
        return Err(corrupt("doc_freq length disagrees with token vocabulary"));
    }
    Ok(FeatureCache::from_parts(
        FeatureConfig { ngram },
        tokens,
        grams,
        features,
        documents,
        doc_freq,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(EntityId(a), EntityId(b))
    }

    fn roundtrip<T>(
        value: &T,
        encode: impl Fn(&mut Writer, &T),
        decode: impl Fn(&mut Reader<'_>) -> Result<T>,
    ) -> T {
        let mut w = Writer::new();
        encode(&mut w, value);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let out = decode(&mut r).expect("decodes");
        r.finish("roundtrip").expect("fully consumed");
        out
    }

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let author = ds.entities.intern_type("author_ref");
        let name = ds.entities.intern_attr("name");
        for i in 0..6 {
            let e = ds.entities.add_entity(author);
            ds.entities.set_attr(e, name, format!("author {i}"));
        }
        let co = ds.relations.declare("coauthor", true);
        let cites = ds.relations.declare("cites", false);
        ds.relations.add_tuple(co, EntityId(0), EntityId(1));
        ds.relations.add_tuple(co, EntityId(1), EntityId(2));
        ds.relations.add_tuple(cites, EntityId(3), EntityId(0));
        ds.set_similar(p(0, 1), SimLevel(2));
        ds.set_similar(p(2, 3), SimLevel(3));
        ds.set_similar(p(0, 3), SimLevel(1));
        // Churn so orders differ from plain insertion.
        ds.retract_similar(p(0, 1));
        ds.set_similar(p(0, 1), SimLevel(1));
        ds.retract_entity(EntityId(5));
        ds
    }

    #[test]
    fn dataset_round_trips_with_order_and_tombstones() {
        let ds = sample_dataset();
        let out = roundtrip(&ds, encode_dataset, decode_dataset);
        assert_eq!(out.entities.len(), ds.entities.len());
        assert_eq!(out.entities.live_count(), ds.entities.live_count());
        assert!(out.entities.is_retracted(EntityId(5)));
        assert_eq!(out.entities.attr(EntityId(2), "name"), Some("author 2"));
        let co = out.relations.relation_id("coauthor").unwrap();
        assert_eq!(
            out.relations.tuples(co),
            ds.relations
                .tuples(ds.relations.relation_id("coauthor").unwrap())
        );
        assert_eq!(out.candidate_count(), ds.candidate_count());
        for i in 0..6 {
            assert_eq!(
                out.sim_neighbors(EntityId(i)),
                ds.sim_neighbors(EntityId(i)),
                "adjacency order preserved for e{i}"
            );
        }
    }

    #[test]
    fn evidence_round_trips_epoch_history() {
        let mut ev = Evidence::positive([p(0, 1), p(2, 3)].into_iter().collect());
        let fence = ev.advance_epoch();
        ev.insert_positive(p(4, 5));
        ev.retract_positive(p(0, 1));
        ev.advance_epoch();
        ev.insert_positive(p(0, 1));
        let out = roundtrip(&ev, encode_evidence, decode_evidence);
        assert_eq!(out, ev);
        assert_eq!(out.epoch(), ev.epoch());
        assert_eq!(out.delta_since(fence), ev.delta_since(fence));
        assert_eq!(out.retractions_since(fence), ev.retractions_since(fence));
        assert_eq!(out.validate_log(), ev.validate_log());
    }

    #[test]
    fn corrupt_evidence_history_is_rejected() {
        let ev = Evidence::positive([p(0, 1)].into_iter().collect());
        let mut w = Writer::new();
        encode_evidence(&mut w, &ev);
        let mut bytes = w.into_bytes();
        // Flip an entity id inside the positive set so the log no longer
        // replays to it.
        bytes[10] ^= 0xFF;
        let mut r = Reader::new(&bytes);
        assert!(decode_evidence(&mut r).is_err());
    }

    #[test]
    fn score_cache_round_trips_scores_and_suppressions() {
        let cache: PairCache<f64> = PairCache::new();
        cache.insert(p(0, 1), 0.75);
        cache.insert(p(2, 3), -0.1);
        cache.suppress(p(4, 5));
        let out = roundtrip(&cache, encode_score_cache, decode_score_cache);
        assert_eq!(out.get(p(0, 1)), Some(0.75));
        assert_eq!(out.get(p(2, 3)), Some(-0.1));
        assert!(out.is_suppressed(p(4, 5)));
        assert!(!out.is_suppressed(p(0, 1)));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn message_store_decode_rebuilds_the_same_forest() {
        let mut store = MessageStore::new();
        store.add_message(&[p(4, 5), p(0, 1)]);
        store.add_message(&[p(0, 1)]); // subsumed
        store.add_message(&[p(6, 7)]);
        store.add_message(&[p(6, 7), p(2, 3)]); // grows
        store.add_message(&[p(8, 9)]);
        let out = roundtrip(&store, encode_message_store, decode_message_store);
        // Roots follow merge history, so compare the message sets.
        let sets = |s: &MessageStore| {
            let mut sets: Vec<Vec<Pair>> = s
                .roots()
                .into_iter()
                .map(|root| {
                    let mut members = s.message(root).unwrap().to_vec();
                    members.sort_unstable();
                    members
                })
                .collect();
            sets.sort_unstable();
            sets
        };
        assert_eq!(sets(&out), sets(&store));
        assert_eq!(out.validate(), Ok(5));
        // Decoded stores keep the add contract: subsets are no-ops.
        let mut out = out;
        assert_eq!(out.add_message(&[p(2, 3), p(6, 7)]), None);
        assert!(out.add_message(&[p(2, 3), p(8, 9)]).is_some());
    }

    #[test]
    fn warm_start_round_trips_banks_store_and_floor() {
        let mut warm = WarmStart::new();
        warm.entity_floor = 17;
        warm.store.add_message(&[p(0, 1), p(2, 3)]);
        warm.store.add_message(&[p(8, 9)]);
        let memo = ProbeMemo::from_parts(
            true,
            true,
            vec![p(0, 1), p(0, 2)],
            vec![(p(0, 1), vec![p(0, 2)]), (p(0, 2), vec![])],
        );
        warm.bank.insert_raw(
            vec![EntityId(0), EntityId(1), EntityId(2)],
            vec![(p(0, 1), SimLevel(2)), (p(0, 2), SimLevel(1))],
            memo,
            true,
        );
        let mut certs = CertificateSet::new();
        certs.record(p(0, 1), Score(1234));
        warm.certs.insert_raw(vec![EntityId(0), EntityId(1)], certs);

        let out = roundtrip(&warm, encode_warm_start, decode_warm_start);
        assert_eq!(out.entity_floor, 17);
        assert_eq!(out.store.roots(), warm.store.roots());
        for root in warm.store.roots() {
            assert_eq!(out.store.message(root), warm.store.message(root));
        }
        assert_eq!(out.bank.len(), 1);
        let mut seen = 0;
        out.bank.for_each_entry(|members, pairs, memo, tainted| {
            seen += 1;
            assert_eq!(members, &[EntityId(0), EntityId(1), EntityId(2)]);
            assert_eq!(pairs.len(), 2);
            assert!(memo.is_visited());
            assert!(memo.is_from_bank());
            assert_eq!(memo.undecided(), &[p(0, 1), p(0, 2)]);
            assert_eq!(memo.entries(), 2);
            assert!(tainted);
        });
        assert_eq!(seen, 1);
        assert_eq!(out.certs.len(), 1);
        out.certs.for_each_entry(|members, set| {
            assert_eq!(members, &[EntityId(0), EntityId(1)]);
            assert_eq!(set.gap(p(0, 1)), Some(Score(1234)));
        });
    }

    #[test]
    fn canopy_memo_round_trips() {
        let memo = CanopyMemo::from_parts(
            Some(CanopyParams {
                ngram: 3,
                loose: 0.35,
                tight: 0.65,
            }),
            vec![
                (EntityId(0), vec![(EntityId(0), true), (EntityId(1), false)]),
                (EntityId(2), vec![(EntityId(2), true)]),
            ],
        );
        let out = roundtrip(&memo, encode_canopy_memo, decode_canopy_memo);
        assert_eq!(out.len(), 2);
        assert_eq!(out.params().unwrap().ngram, 3);
        let mut canopies: Vec<(EntityId, Vec<(EntityId, bool)>)> = Vec::new();
        out.for_each_canopy(|c, m| canopies.push((c, m.to_vec())));
        canopies.sort_unstable_by_key(|&(c, _)| c);
        assert_eq!(
            canopies[0].1,
            vec![(EntityId(0), true), (EntityId(1), false)]
        );
    }

    #[test]
    fn cover_round_trips() {
        let cover = Cover::from_neighborhoods(vec![
            vec![EntityId(0), EntityId(1)],
            vec![EntityId(1), EntityId(2), EntityId(3)],
        ]);
        let out = roundtrip(&cover, encode_cover, decode_cover);
        assert_eq!(out.len(), cover.len());
        for id in cover.ids() {
            assert_eq!(out.members(id), cover.members(id));
        }
    }

    #[test]
    fn feature_cache_round_trips_bit_exactly() {
        let points: Vec<(EntityId, String)> = ["john smith", "jane doe", "j smith"]
            .iter()
            .enumerate()
            .map(|(i, s)| (EntityId(i as u32 * 2), (*s).to_owned()))
            .collect();
        let cache = FeatureCache::from_points(&points, 7, FeatureConfig::default());
        let out = roundtrip(&cache, encode_feature_cache, decode_feature_cache);
        assert_eq!(out.universe(), cache.universe());
        assert_eq!(out.len(), cache.len());
        assert_eq!(out.doc_freq(), cache.doc_freq());
        assert_eq!(out.token_interner().len(), cache.token_interner().len());
        for i in 0..cache.universe() as u32 {
            let (a, b) = (cache.get(EntityId(i)), out.get(EntityId(i)));
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.key, b.key);
                    assert_eq!(a.tokens, b.tokens);
                    assert_eq!(a.grams, b.grams);
                    assert_eq!(a.norm.to_bits(), b.norm.to_bits());
                    for (x, y) in a.tfidf.iter().zip(&b.tfidf) {
                        assert_eq!(x.0, y.0);
                        assert_eq!(x.1.to_bits(), y.1.to_bits());
                    }
                }
                _ => panic!("presence mismatch at e{i}"),
            }
        }
    }

    #[test]
    fn corrupt_interned_id_is_typed() {
        let points = vec![(EntityId(0), "john smith".to_owned())];
        let cache = FeatureCache::from_points(&points, 1, FeatureConfig::default());
        let mut w = Writer::new();
        encode_feature_cache(&mut w, &cache);
        let bytes = w.into_bytes();
        // Decoding a truncated prefix must error, not panic.
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_feature_cache(&mut r).is_err(), "cut at {cut}");
        }
    }
}
