//! Launching a parallel "program": one thread per rank in-process, or —
//! for couplings that must survive `kill -9` — one OS process per rank.

use std::io;
use std::process::{Child, Command, Stdio};
use std::thread;

use crate::comm::Comm;

/// Run `body` on `nranks` ranks (threads) and collect each rank's return
/// value, ordered by rank. Panics if any rank panics.
///
/// This is the MPI substitute's `mpirun`: the closure receives that rank's
/// [`Comm`] and runs to completion.
pub fn launch<T, F>(nranks: usize, body: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Comm) -> T + Send + Sync + 'static,
{
    launch_named(nranks, "rank", body)
}

/// Like [`launch`] but threads are named `"{name}-{rank}"`, which makes
/// debugging coupled simulation/analytics runs much easier.
pub fn launch_named<T, F>(nranks: usize, name: &str, body: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Comm) -> T + Send + Sync + 'static,
{
    let body = std::sync::Arc::new(body);
    let mut handles = Vec::with_capacity(nranks);
    for comm in Comm::fabric(nranks) {
        let body = std::sync::Arc::clone(&body);
        let rank = comm.rank();
        let handle = thread::Builder::new()
            .name(format!("{name}-{rank}"))
            .spawn(move || body(comm))
            .expect("failed to spawn rank thread");
        handles.push(handle);
    }
    let mut results = Vec::with_capacity(nranks);
    let mut failed = Vec::new();
    for (rank, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(v) => results.push(v),
            Err(_) => failed.push(rank),
        }
    }
    assert!(failed.is_empty(), "ranks {failed:?} panicked during parallel execution");
    results
}

/// Environment variable carrying the rank group name to a spawned rank
/// process.
const ENV_NAME: &str = "RANKRT_NAME";
/// Environment variable carrying the process's rank index.
const ENV_RANK: &str = "RANKRT_RANK";
/// Environment variable carrying the rank group size.
const ENV_NRANKS: &str = "RANKRT_NRANKS";

/// One spawned rank process (see [`spawn_ranks`]).
pub struct RankProc {
    /// Rank index within the group.
    pub rank: usize,
    /// The OS process. `stdout` is piped so the parent can observe
    /// progress lines, `stdin` so it can hold a rank at a point of its
    /// choosing (the rank reads a line; dropping the pipe releases it);
    /// `kill()` is the chaos hammer.
    pub child: Child,
}

/// The rank identity a spawned worker process reads back at startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankEnv {
    /// Rank group name (the worker's role, e.g. `"writer"`).
    pub name: String,
    /// Rank index within the group.
    pub rank: usize,
    /// Rank group size.
    pub nranks: usize,
}

impl RankEnv {
    /// Parse the rank identity from the process environment. `None` when
    /// the process was not started by [`spawn_ranks`].
    pub fn from_env() -> Option<RankEnv> {
        let name = std::env::var(ENV_NAME).ok()?;
        let rank = std::env::var(ENV_RANK).ok()?.parse().ok()?;
        let nranks = std::env::var(ENV_NRANKS).ok()?.parse().ok()?;
        Some(RankEnv { name, rank, nranks })
    }
}

/// The process analogue of [`launch_named`]: start `nranks` copies of
/// `bin`, each told its identity through the `RANKRT_*` environment
/// protocol plus the caller's extra `envs`. Unlike thread ranks, these
/// survive nothing for free — a `kill -9` on one of them is exactly the
/// failure mode the coupling layers above are built to absorb, which is
/// why stdout is piped (the parent watches progress), stdin is piped (the
/// parent can hold a rank until it has acted) and stderr is inherited
/// (panics stay visible).
pub fn spawn_ranks(
    bin: &str,
    name: &str,
    nranks: usize,
    envs: &[(String, String)],
) -> io::Result<Vec<RankProc>> {
    let mut procs = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        let mut cmd = Command::new(bin);
        cmd.env(ENV_NAME, name)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_NRANKS, nranks.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        procs.push(RankProc { rank, child: cmd.spawn()? });
    }
    Ok(procs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_collects_ordered_results() {
        let results = launch(7, |comm| comm.rank() * comm.rank());
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn spawn_ranks_sets_the_env_protocol() {
        // `env` prints the environment; assert our protocol reaches the
        // child process and stdout is captured.
        let procs = spawn_ranks("env", "grp", 2, &[("EXTRA_K".into(), "extra-v".into())])
            .expect("spawn env");
        for p in procs {
            let out = p.child.wait_with_output().expect("child runs");
            assert!(out.status.success());
            let text = String::from_utf8_lossy(&out.stdout).to_string();
            assert!(text.contains("RANKRT_NAME=grp"));
            assert!(text.contains(&format!("RANKRT_RANK={}", p.rank)));
            assert!(text.contains("RANKRT_NRANKS=2"));
            assert!(text.contains("EXTRA_K=extra-v"));
        }
    }

    #[test]
    fn single_rank_launch() {
        let results = launch(1, |comm| {
            comm.barrier();
            comm.size()
        });
        assert_eq!(results, vec![1]);
    }
}
