//! NUMA cost helpers for on-node data movement and buffer placement.
//!
//! Paper §III.B.3: "For NUMA machines, the algorithm not only decides
//! process-to-core binding, but also determines the placement of FlexIO's
//! internal buffers in memory. Our default policy is that the shared memory
//! data queues and buffer pools are placed into simulation processes' local
//! NUMA domain no matter where communicating analytics processes are
//! located" — favouring the producer because the simulation is the
//! performance-bounding stage of the pipeline.

use machine::{CoreLocation, NodeParams};

/// Where the shared-memory queue/pool pages live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePlacement {
    /// In the producer's (simulation's) local NUMA domain — the default.
    ProducerLocal,
    /// In the consumer's (analytics') local NUMA domain.
    ConsumerLocal,
}

/// Time to copy `bytes` between two cores' memory domains, nanoseconds.
/// Same NUMA domain uses the local copy bandwidth; cross-domain (or
/// cross-node caller bugs) use the slower remote bandwidth.
pub fn copy_time_ns(node: &NodeParams, src: CoreLocation, dst: CoreLocation, bytes: u64) -> f64 {
    assert!(src.same_node(&dst), "copy_time_ns models on-node movement only");
    let bw = if src.same_numa(&dst) { node.local_copy_bw } else { node.remote_copy_bw };
    node.shm_latency_ns + bytes as f64 / bw * 1e9
}

/// Total modelled cost of one producer→consumer transfer of `bytes`
/// through a queue placed per `placement`: the producer's copy-in plus the
/// consumer's copy-out, each local or remote depending on where the queue
/// pages are.
pub fn queue_placement_cost(
    node: &NodeParams,
    producer: CoreLocation,
    consumer: CoreLocation,
    bytes: u64,
    placement: QueuePlacement,
) -> f64 {
    assert!(producer.same_node(&consumer));
    let queue_loc = match placement {
        QueuePlacement::ProducerLocal => producer,
        QueuePlacement::ConsumerLocal => consumer,
    };
    copy_time_ns(node, producer, queue_loc, bytes) + copy_time_ns(node, queue_loc, consumer, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::smoky;

    fn cores() -> (NodeParams, CoreLocation, CoreLocation, CoreLocation) {
        let node = smoky().node;
        let producer = CoreLocation { node: 0, numa: 0, core: 0 };
        let same_numa_consumer = CoreLocation { node: 0, numa: 0, core: 3 };
        let cross_numa_consumer = CoreLocation { node: 0, numa: 2, core: 1 };
        (node, producer, same_numa_consumer, cross_numa_consumer)
    }

    #[test]
    fn local_copy_is_faster() {
        let (node, p, same, cross) = cores();
        let local = copy_time_ns(&node, p, same, 1 << 20);
        let remote = copy_time_ns(&node, p, cross, 1 << 20);
        assert!(local < remote);
    }

    #[test]
    fn producer_local_placement_favours_producer() {
        // With a cross-NUMA consumer: producer-local means copy-in is
        // local (fast) and copy-out is remote; consumer-local flips it.
        // Total is the same under a symmetric model, so compare the
        // producer-visible share instead.
        let (node, p, _, cross) = cores();
        let bytes = 1 << 20;
        let producer_in_cost_producer_local = copy_time_ns(&node, p, p, bytes);
        let producer_in_cost_consumer_local = copy_time_ns(&node, p, cross, bytes);
        assert!(producer_in_cost_producer_local < producer_in_cost_consumer_local);
        // And the symmetric totals agree.
        let t1 = queue_placement_cost(&node, p, cross, bytes, QueuePlacement::ProducerLocal);
        let t2 = queue_placement_cost(&node, p, cross, bytes, QueuePlacement::ConsumerLocal);
        assert!((t1 - t2).abs() < 1e-9);
    }

    #[test]
    fn same_numa_placement_is_all_local() {
        let (node, p, same, _) = cores();
        let t = queue_placement_cost(&node, p, same, 1 << 20, QueuePlacement::ProducerLocal);
        let direct = 2.0 * copy_time_ns(&node, p, same, 1 << 20);
        assert!((t - direct).abs() < 1e-9);
    }
}
