//! Merging per-shard results back into one campaign.
//!
//! The [`Merger`] collects results from any number of shards (in any
//! arrival order) into the global work-item order, refusing to finish
//! while items are missing and refusing *conflicting duplicates*
//! outright: a work item computed twice — a retried shard, a journal
//! replay racing a recompute — must produce bit-identical results, so a
//! mismatch is a determinism violation worth failing loudly over, never
//! something to paper over by picking one. The campaign kind then renders
//! the merged results into the canonical output lines, which is what the
//! byte-identity guarantee is stated over.

use std::collections::BTreeMap;

/// What the merger needs from a campaign work-item result. Pareto
/// campaigns merge [`super::ItemResult`]s, SLO campaigns merge
/// [`super::SloItemResult`]s; the merge discipline — global item order,
/// conflicting duplicates are determinism violations — is identical, so
/// the [`Merger`] is generic over it.
pub trait CampaignResult: Clone + PartialEq + std::fmt::Debug {
    /// Global work-item index (the merge key).
    fn item_index(&self) -> u64;
    /// Short description used in determinism-violation diagnostics.
    fn summary(&self) -> String;
}

/// Accumulates per-item results from all shards of a campaign.
#[derive(Debug)]
pub struct Merger<R: CampaignResult = super::ItemResult> {
    expected: usize,
    results: BTreeMap<u64, R>,
}

impl<R: CampaignResult> Merger<R> {
    /// A merger expecting the campaign's full work-item count.
    pub fn new(expected: usize) -> Self {
        Self {
            expected,
            results: BTreeMap::new(),
        }
    }

    /// Add one completed item. Re-inserting a bit-identical result is
    /// fine (idempotent — retries and replays do this); a *different*
    /// result under the same item index is a determinism violation and
    /// errors.
    pub fn insert(&mut self, r: R) -> Result<(), String> {
        let item = r.item_index();
        if item >= self.expected as u64 {
            return Err(format!(
                "merge: item {item} out of range (campaign has {} items)",
                self.expected
            ));
        }
        match self.results.get(&item) {
            Some(prev) if *prev != r => Err(format!(
                "merge: determinism violation: item {item} computed twice with different \
                 results ({} vs {})",
                prev.summary(),
                r.summary()
            )),
            Some(_) => Ok(()),
            None => {
                self.results.insert(item, r);
                Ok(())
            }
        }
    }

    /// Number of distinct items collected so far.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Whether every expected item has arrived.
    pub fn is_complete(&self) -> bool {
        self.results.len() == self.expected
    }

    /// The item indices still missing, ascending.
    pub fn missing(&self) -> Vec<u64> {
        (0..self.expected as u64)
            .filter(|i| !self.results.contains_key(i))
            .collect()
    }

    /// Finish the merge: the results in global item order, or an error
    /// naming the missing items.
    pub fn finish(self) -> Result<Vec<R>, String> {
        if !self.is_complete() {
            let missing = self.missing();
            return Err(format!(
                "merge: {} of {} items missing (first missing: {:?})",
                missing.len(),
                self.expected,
                &missing[..missing.len().min(8)]
            ));
        }
        Ok(self.results.into_values().collect())
    }
}
