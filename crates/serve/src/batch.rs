//! Request batching: coalesce same-class requests into bundles.
//!
//! Serving accelerators one tiny inference at a time wastes placement
//! decisions and probe work. The batcher re-forms bundles from the pending
//! queue at every decision round: same-class requests arriving within a
//! batching window merge, up to a maximum batch size, into a single job
//! whose phases carry the combined traffic. Members share the bundle's
//! placement and complete together; bundles that do not get placed simply
//! dissolve back into the pending queue and re-form next round, so
//! batching never strands a request.

use std::ops::Range;

/// Batching configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most requests a bundle may carry (1 disables batching).
    pub max_batch: usize,
    /// Only requests whose arrivals fall within this many cycles of the
    /// bundle's first member may join it.
    pub window: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 4,
            window: 50_000,
        }
    }
}

/// An admitted request waiting for placement.
#[derive(Debug, Clone, Copy)]
pub struct PendingRequest {
    /// Request id (arrival order, unique per run).
    pub id: usize,
    /// Index into the run's class list.
    pub class_idx: usize,
    /// Arrival time, cycles.
    pub arrival: u64,
    /// Absolute completion deadline, if the class has an SLO.
    pub deadline: Option<u64>,
}

/// A coalesced group of same-class requests, placed as one job: the
/// class template with every phase's work multiplied by the member count.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// Index into the run's class list.
    pub class_idx: usize,
    /// Id of the first member; the bundle's id as a queued job.
    pub id: usize,
    /// The latest member's arrival (the bundle cannot start before
    /// everyone it carries exists).
    pub arrival: u64,
    /// The most urgent member's deadline.
    pub deadline: Option<u64>,
    /// Where the member ids sit in [`Bundles::members`].
    members: Range<usize>,
}

impl Bundle {
    /// Requests the bundle carries.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// The bundles of one decision round. The serving loop keeps one and
/// re-forms it every round, so its vectors are reused rather than
/// reallocated.
#[derive(Debug, Default)]
pub struct Bundles {
    bundles: Vec<Bundle>,
    /// Member request ids of every bundle, each bundle's in arrival order.
    member_ids: Vec<usize>,
}

impl Bundles {
    /// Re-forms the bundles from the pending queue.
    ///
    /// `pending` must be in arrival order (the engine's queue is).
    /// Grouping is per class, greedy in arrival order, so the result is a
    /// deterministic function of the queue. Bundles come out oldest first
    /// (by latest-member arrival, then id), so the policy's service order
    /// sees the queue in arrival order across classes.
    pub fn form(&mut self, pending: &[PendingRequest], classes: usize, cfg: &BatchConfig) {
        let max_batch = cfg.max_batch.max(1);
        self.bundles.clear();
        self.member_ids.clear();
        for class_idx in 0..classes {
            // The bundle being filled and its first member's arrival.
            let mut open: Option<(Bundle, u64)> = None;
            for req in pending.iter().filter(|r| r.class_idx == class_idx) {
                match &mut open {
                    Some((b, first))
                        if b.size() < max_batch
                            && req.arrival.saturating_sub(*first) <= cfg.window =>
                    {
                        b.arrival = b.arrival.max(req.arrival);
                        b.deadline = match (b.deadline, req.deadline) {
                            (Some(a), Some(d)) => Some(a.min(d)),
                            (a, d) => a.or(d),
                        };
                        b.members.end += 1;
                    }
                    _ => {
                        self.bundles.extend(open.take().map(|(b, _)| b));
                        let at = self.member_ids.len();
                        let bundle = Bundle {
                            class_idx,
                            id: req.id,
                            arrival: req.arrival,
                            deadline: req.deadline,
                            members: at..at + 1,
                        };
                        open = Some((bundle, req.arrival));
                    }
                }
                self.member_ids.push(req.id);
            }
            self.bundles.extend(open.map(|(b, _)| b));
        }
        // Ids are unique, so the unstable sort is deterministic.
        self.bundles.sort_unstable_by_key(|b| (b.arrival, b.id));
    }

    /// The bundles, oldest first.
    pub fn iter(&self) -> std::slice::Iter<'_, Bundle> {
        self.bundles.iter()
    }

    /// Member request ids of `bundle`, in arrival order.
    pub fn members(&self, bundle: &Bundle) -> &[usize] {
        &self.member_ids[bundle.members.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{contended_classes, RequestClass};

    fn pend(classes: &[RequestClass], id: usize, class_idx: usize, arrival: u64) -> PendingRequest {
        let job = classes[class_idx].request(id, arrival);
        PendingRequest {
            id,
            class_idx,
            arrival: job.arrival,
            deadline: job.deadline,
        }
    }

    /// The bundles `pending` forms, oldest first, as (bundle, member ids).
    fn form_bundles(
        pending: &[PendingRequest],
        classes: &[RequestClass],
        cfg: &BatchConfig,
    ) -> Vec<(Bundle, Vec<usize>)> {
        let mut bundles = Bundles::default();
        bundles.form(pending, classes.len(), cfg);
        bundles
            .iter()
            .map(|b| (b.clone(), bundles.members(b).to_vec()))
            .collect()
    }

    #[test]
    fn same_class_requests_coalesce_up_to_max_batch() {
        let classes = contended_classes();
        let pending: Vec<PendingRequest> = (0..5)
            .map(|i| pend(&classes, i, 1, i as u64 * 10))
            .collect();
        let cfg = BatchConfig {
            max_batch: 4,
            window: 1_000,
        };
        let bundles = form_bundles(&pending, &classes, &cfg);
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].1, vec![0, 1, 2, 3]);
        assert_eq!(bundles[1].1, vec![4]);
        // Traffic sums: the bundle's work scale is its member count.
        assert_eq!((bundles[0].0.size(), bundles[1].0.size()), (4, 1));
    }

    #[test]
    fn the_window_splits_distant_arrivals() {
        let classes = contended_classes();
        let pending = vec![
            pend(&classes, 0, 1, 0),
            pend(&classes, 1, 1, 10),
            pend(&classes, 2, 1, 5_000),
        ];
        let cfg = BatchConfig {
            max_batch: 8,
            window: 100,
        };
        let bundles = form_bundles(&pending, &classes, &cfg);
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].1, vec![0, 1]);
        assert_eq!(bundles[1].1, vec![2]);
    }

    #[test]
    fn bundles_take_the_most_urgent_deadline_and_latest_arrival() {
        let classes = contended_classes();
        let pending = vec![pend(&classes, 0, 2, 100), pend(&classes, 1, 2, 300)];
        let cfg = BatchConfig::default();
        let bundles = form_bundles(&pending, &classes, &cfg);
        assert_eq!(bundles.len(), 1);
        let b = &bundles[0].0;
        assert_eq!(b.arrival, 300);
        let rel = classes[2].relative_deadline.unwrap();
        assert_eq!(b.deadline, Some(100 + rel));
        assert_eq!(b.id, 0);
    }

    #[test]
    fn classes_never_mix_and_order_is_by_arrival() {
        let classes = contended_classes();
        let pending = vec![
            pend(&classes, 0, 2, 50),
            pend(&classes, 1, 1, 0),
            pend(&classes, 2, 2, 60),
        ];
        let bundles = form_bundles(&pending, &classes, &BatchConfig::default());
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].0.class_idx, 1); // arrival 0 first
        assert_eq!(bundles[1].1, vec![0, 2]);
    }

    #[test]
    fn max_batch_one_disables_batching() {
        let classes = contended_classes();
        let pending: Vec<PendingRequest> = (0..3).map(|i| pend(&classes, i, 1, 0)).collect();
        let cfg = BatchConfig {
            max_batch: 1,
            window: 1_000,
        };
        let bundles = form_bundles(&pending, &classes, &cfg);
        assert_eq!(bundles.len(), 3);
        assert!(bundles.iter().all(|(b, _)| b.size() == 1));
    }
}
