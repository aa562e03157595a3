//! Windowed block reading shared by the benchmarks' host programs.
//!
//! The paper's `+pref` configurations keep **two** outstanding I/O
//! requests ("if two outstanding I/O requests are issued", §5);
//! the plain configurations read synchronously, one block at a time.
//! [`BlockReader`] implements that window over the cluster's
//! asynchronous read API.

use std::collections::BTreeMap;

use asan_core::cluster::{Dest, FileId, HostCtx, ReqId};
use asan_sim::snap_fields;

/// A sequential block-read plan over one file.
#[derive(Debug, Clone, Copy)]
pub struct BlockPlan {
    /// File to read.
    pub file: FileId,
    /// Total bytes to read (from offset 0).
    pub total: u64,
    /// Request size (64 KB for most benchmarks, 32 KB for Grep).
    pub block: u64,
    /// Window size: 1 (synchronous) or 2 (`+pref`).
    pub outstanding: u64,
    /// Delivery destination of every block.
    pub dest: Dest,
}

/// Tracks the outstanding window and hands back completed ranges.
#[derive(Debug)]
pub struct BlockReader {
    plan: BlockPlan,
    next_offset: u64,
    pending: BTreeMap<ReqId, (u64, u64)>,
    completed_bytes: u64,
}
snap_fields! { BlockReader { next_offset, pending, completed_bytes, static plan } }

impl BlockReader {
    /// Points the reader at `plan`, keeping its cursor state (a restore
    /// re-derives which plan a multi-phase program is reading).
    pub fn replan(&mut self, plan: BlockPlan) {
        self.plan = plan;
    }

    /// Creates a reader; call [`start`](BlockReader::start) to issue the
    /// initial window.
    pub fn new(plan: BlockPlan) -> Self {
        assert!(plan.block > 0 && plan.total > 0, "empty plan");
        BlockReader {
            plan,
            next_offset: 0,
            pending: BTreeMap::new(),
            completed_bytes: 0,
        }
    }

    /// Issues the initial window of requests.
    pub fn start(&mut self, ctx: &mut HostCtx<'_>) {
        for _ in 0..self.plan.outstanding {
            self.issue_next(ctx);
        }
    }

    fn issue_next(&mut self, ctx: &mut HostCtx<'_>) {
        if self.next_offset >= self.plan.total {
            return;
        }
        let len = self.plan.block.min(self.plan.total - self.next_offset);
        let req = ctx.read_file(self.plan.file, self.next_offset, len, self.plan.dest);
        self.pending.insert(req, (self.next_offset, len));
        self.next_offset += len;
    }

    /// Handles a completion: returns the `(offset, len)` that finished.
    /// Returns `None` for requests not issued by this reader.
    ///
    /// With a window of 2+ (`+pref`), the next request is issued
    /// immediately — *before* the caller processes the block — keeping
    /// two requests outstanding. With a window of 1 (the paper's
    /// synchronous `normal` case), nothing is issued here: the caller
    /// must call [`refill`](BlockReader::refill) *after* processing the
    /// block, reproducing the read-process-read serialization whose
    /// I/O stall time the paper's figures show.
    pub fn on_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) -> Option<(u64, u64)> {
        let range = self.pending.remove(&req)?;
        self.completed_bytes += range.1;
        if self.plan.outstanding > 1 {
            self.issue_next(ctx);
        }
        Some(range)
    }

    /// Issues the next request after the caller finished processing the
    /// previous block (no-op when the window is already full or the
    /// plan is exhausted).
    pub fn refill(&mut self, ctx: &mut HostCtx<'_>) {
        while (self.pending.len() as u64) < self.plan.outstanding {
            if self.next_offset >= self.plan.total {
                return;
            }
            self.issue_next(ctx);
        }
    }

    /// Whether every byte of the plan has completed.
    pub fn done(&self) -> bool {
        self.completed_bytes >= self.plan.total
    }

    /// Bytes completed so far.
    pub fn completed_bytes(&self) -> u64 {
        self.completed_bytes
    }
}
