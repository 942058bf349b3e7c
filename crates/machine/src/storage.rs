//! Shared parallel-file-system parameters (read by `dessim::s3d`).

/// Parameters of the center-wide parallel file system (Lustre on both
/// Smoky and Titan). The key behaviour for the paper's S3D experiment
/// (Fig. 9) is that file I/O does **not** scale with writer count: past a
/// modest number of concurrent writers, aggregate bandwidth saturates and
/// per-writer bandwidth falls, which is why inline (file-based) placement
/// loses to staging at larger scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileSystemParams {
    /// Aggregate bandwidth the job can extract from the file system,
    /// bytes/sec.
    pub aggregate_bw: f64,
    /// Bandwidth one writer can sustain alone, bytes/sec.
    pub per_writer_bw: f64,
    /// Fixed per-operation overhead (open/metadata), nanoseconds.
    pub per_op_ns: f64,
    /// Writer count beyond which metadata/lock contention further degrades
    /// aggregate bandwidth.
    pub contention_writers: usize,
    /// Fractional aggregate-bandwidth loss per doubling of writers beyond
    /// `contention_writers`.
    pub contention_decay: f64,
}

impl FileSystemParams {
    /// Effective aggregate bandwidth with `writers` concurrent writers.
    pub fn effective_aggregate_bw(&self, writers: usize) -> f64 {
        let writers = writers.max(1);
        let linear = (self.per_writer_bw * writers as f64).min(self.aggregate_bw);
        if writers <= self.contention_writers {
            return linear;
        }
        let doublings = ((writers as f64) / (self.contention_writers as f64)).log2();
        let decay = (1.0 - self.contention_decay).powf(doublings);
        linear * decay
    }

    /// Lustre as seen by a single job on the shared OLCF center-wide
    /// file system (calibrated to a few GB/s of job-visible bandwidth).
    pub fn lustre_shared() -> Self {
        FileSystemParams {
            aggregate_bw: 12e9,
            per_writer_bw: 400e6,
            per_op_ns: 2e6,
            contention_writers: 256,
            contention_decay: 0.18,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_saturates_then_degrades() {
        let fs = FileSystemParams::lustre_shared();
        let few = fs.effective_aggregate_bw(8);
        let sat = fs.effective_aggregate_bw(256);
        let many = fs.effective_aggregate_bw(4096);
        assert!(few < sat);
        assert!(many < sat, "contention must reduce aggregate bw: {many} vs {sat}");
    }
}
