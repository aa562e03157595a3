//! HashJoin with bit-vector filter (§5, DeWitt-Gerber style).
//!
//! Phase 1: scan relation R (16 MB), build the host hash table and set
//! bits of the 128 KB bit-vector. Phase 2: scan relation S (128 MB);
//! records whose bit is clear are discarded before the join.
//!
//! * **normal**: both the bit-vector check and the join probe run on
//!   the host.
//! * **active**: the bit-vector lives in the switch ("the bit-vector is
//!   stored in the switch while the relation R passes through the
//!   switch"); the switch filters S and forwards only the surviving
//!   ~24 % to the host, which runs the real join probe.
//!
//! Shape to reproduce (Figures 5–6): active beats normal by ~1.10×
//! without prefetch; the two prefetched cases tie; host traffic drops
//! by ~76 %; the host cache-stall share drops (27.6 % → 16.1 % for the
//! prefetched cases) because the unrelated records never pollute the
//! host caches; the switch CPU sees misses on its 128 KB bit-vector
//! (≫ its 1 KB D-cache) but the impact is small.

use std::sync::Arc; // asan-lint: allow(domain-isolation) — immutable payload handoff, no locks or threads

use asan_core::cluster::{ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::{HandlerId, NodeId};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::snap_fields;

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data;
use crate::runner::{drive, standard_cluster, AppRun, Variant};
use crate::shared::Shared;

/// Handler that observes R and sets bit-vector bits.
pub const BUILD_HANDLER: HandlerId = HandlerId::new_const(3);

/// Handler that filters S against the bit-vector.
pub const PROBE_HANDLER: HandlerId = HandlerId::new_const(4);

/// Flow tag of the final statistics message.
pub const DONE_HANDLER: HandlerId = HandlerId::new_const(62);

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Relation R size in bytes (16 MB in Table 1).
    pub r_bytes: u64,
    /// Relation S size in bytes (128 MB in Table 1).
    pub s_bytes: u64,
    /// Record size (128 B, §5).
    pub record_bytes: u64,
    /// Bit-vector size in bits (≈1 M bits = 128 KB, §5).
    pub bits: u64,
    /// I/O request size.
    pub io_block: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            r_bytes: 16 << 20,
            s_bytes: 128 << 20,
            record_bytes: 128,
            bits: 1 << 20,
            io_block: 64 * 1024,
        }
    }

    /// A scaled-down configuration for tests (keeps the R:S ratio).
    pub fn small() -> Self {
        Params {
            r_bytes: 512 << 10,
            s_bytes: 4 << 20,
            bits: 1 << 15,
            ..Params::paper()
        }
    }
}

/// The hash function both sides use for the bit-vector.
#[inline]
pub fn hash_bit(key: u64, bits: u64) -> u64 {
    (key.wrapping_mul(0x9E3779B97F4A7C15) >> 40) % bits
}

/// Pure-Rust reference: (bit-vector pass count, true join matches).
pub fn reference(r: &[u8], s: &[u8], p: &Params) -> (u64, u64) {
    let rb = p.record_bytes as usize;
    let mut bv = vec![false; p.bits as usize];
    let mut keys = std::collections::BTreeSet::new();
    for i in 0..r.len() / rb {
        let k = data::record_key(r, rb, i);
        bv[hash_bit(k, p.bits) as usize] = true;
        keys.insert(k);
    }
    let mut pass = 0u64;
    let mut matches = 0u64;
    for i in 0..s.len() / rb {
        let k = data::record_key(s, rb, i);
        if bv[hash_bit(k, p.bits) as usize] {
            pass += 1;
            if keys.contains(&k) {
                matches += 1;
            }
        }
    }
    (pass, matches)
}

/// Host-side join state shared by both variants: the real hash table.
#[derive(Debug, Default)]
struct JoinState {
    table: std::collections::BTreeMap<u64, u32>,
    bv_pass: u64,
    matches: u64,
}

snap_fields! { JoinState { table, bv_pass, matches } }

/// A bit-vector whose length is fixed at construction, snapshotted
/// packed eight bits to a byte.
#[derive(Debug, Clone)]
struct BitVec(Vec<bool>);

impl std::ops::Deref for BitVec {
    type Target = Vec<bool>;
    fn deref(&self) -> &Vec<bool> {
        &self.0
    }
}

impl std::ops::DerefMut for BitVec {
    fn deref_mut(&mut self) -> &mut Vec<bool> {
        &mut self.0
    }
}

impl Snap for BitVec {
    fn save(&self, w: &mut SnapWriter) {
        let mut packed = vec![0u8; self.len().div_ceil(8)];
        for (i, &b) in self.iter().enumerate() {
            if b {
                packed[i / 8] |= 1 << (i % 8);
            }
        }
        w.bytes(&packed);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let packed = r.bytes()?;
        if packed.len() != self.len().div_ceil(8) {
            return Err(SnapError::Malformed("bit-vector length"));
        }
        for (i, b) in self.iter_mut().enumerate() {
            *b = packed[i / 8] & (1 << (i % 8)) != 0;
        }
        Ok(())
    }
}

/// Memory regions used by the host program.
const R_BUF: u64 = 0x1000_0000;
const S_BUF: u64 = 0x3000_0000;
const HASHTAB: u64 = 0x8000_0000;
const BITVEC: u64 = 0x7000_0000;

/// Normal-case host program: build then probe, all on the host.
struct NormalJoin {
    r: Arc<Vec<u8>>,
    s: Arc<Vec<u8>>,
    p: Params,
    phase: u8,
    reader: BlockReader,
    s_plan: BlockPlan,
    bv: BitVec,
    st: JoinState,
}
// The reader is replaced when phase 1 starts, so a restore re-points it
// at the S plan once `phase` is known.
snap_fields! {
    NormalJoin {
        phase, reader, bv, st, static r, static s, static p, static s_plan,
    } after NormalJoin::replan
}

impl NormalJoin {
    fn replan(&mut self) -> Result<(), SnapError> {
        if self.phase == 1 {
            self.reader.replan(self.s_plan);
        }
        Ok(())
    }
}

impl NormalJoin {
    fn scan_r(&mut self, ctx: &mut HostCtx<'_>, off: u64, len: u64) {
        let rb = self.p.record_bytes;
        for i in 0..len / rb {
            let idx = ((off + i * rb) / rb) as usize;
            let key = data::record_key(&self.r, rb as usize, idx);
            ctx.cpu().load(R_BUF + off + i * rb);
            ctx.cpu()
                .compute(cost::JOIN_HASH_INSTR + cost::JOIN_INSERT_INSTR);
            let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
            ctx.cpu().load(bucket);
            ctx.cpu().store(bucket);
            let bit = hash_bit(key, self.p.bits);
            ctx.cpu().load(BITVEC + bit / 8);
            ctx.cpu().store(BITVEC + bit / 8);
            self.bv[bit as usize] = true;
            *self.st.table.entry(key).or_insert(0) += 1;
        }
    }

    fn scan_s(&mut self, ctx: &mut HostCtx<'_>, off: u64, len: u64) {
        let rb = self.p.record_bytes;
        for i in 0..len / rb {
            let idx = ((off + i * rb) / rb) as usize;
            let key = data::record_key(&self.s, rb as usize, idx);
            ctx.cpu().load(S_BUF + off + i * rb);
            ctx.cpu().compute(cost::JOIN_HASH_INSTR);
            let bit = hash_bit(key, self.p.bits);
            ctx.cpu().load(BITVEC + bit / 8);
            if self.bv[bit as usize] {
                self.st.bv_pass += 1;
                ctx.cpu().compute(cost::JOIN_PROBE_INSTR);
                let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
                ctx.cpu().load(bucket);
                ctx.cpu().load(bucket + 64); // bucket chain / key page
                if self.st.table.contains_key(&key) {
                    self.st.matches += 1;
                }
            }
        }
    }
}

impl HostProgram for NormalJoin {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Zero the bit-vector (touch all 128 KB of it).
        ctx.cpu().touch_lines(BITVEC, self.p.bits / 8, 1, true);
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        let Some((off, len)) = self.reader.on_complete(ctx, req) else {
            return;
        };
        if self.phase == 0 {
            self.scan_r(ctx, off, len);
            self.reader.refill(ctx);
            if self.reader.done() {
                self.phase = 1;
                self.reader = BlockReader::new(self.s_plan);
                self.reader.start(ctx);
            }
        } else {
            self.scan_s(ctx, off, len);
            self.reader.refill(ctx);
            if self.reader.done() {
                ctx.finish();
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// The switch handler: builds the bit-vector as R streams by (while
/// forwarding R to the host), then filters S.
pub struct JoinFilter {
    p: Params,
    host: NodeId,
    /// The real bit-vector.
    bv: BitVec,
    /// Base address of the bit-vector in switch-local memory.
    bv_base: u64,
    seen: u64,
    expect_r: u64,
    expect_s: u64,
    pass: u64,
    batch: Vec<u8>,
    batch_buf: Option<asan_core::BufId>,
    out_addr: u32,
}
snap_fields! {
    JoinFilter {
        bv, seen, pass, batch, batch_buf, out_addr, static p, static host, static bv_base,
        static expect_r, static expect_s,
    }
}

impl JoinFilter {
    fn new(p: Params, host: NodeId) -> Self {
        JoinFilter {
            bv: BitVec(vec![false; p.bits as usize]),
            bv_base: 0x4_0000,
            seen: 0,
            expect_r: p.r_bytes,
            expect_s: p.s_bytes,
            pass: 0,
            batch: Vec::new(),
            batch_buf: None,
            out_addr: 0,
            p,
            host,
        }
    }

    /// S records that passed the filter.
    pub fn pass_count(&self) -> u64 {
        self.pass
    }

    fn flush(&mut self, ctx: &mut HandlerCtx<'_>) {
        if let Some(buf) = self.batch_buf.take() {
            if self.batch.is_empty() {
                ctx.free_buffer(buf);
            } else {
                ctx.send_buffer(buf, self.host, None, self.out_addr);
                self.out_addr = self.out_addr.wrapping_add(self.batch.len() as u32);
                self.batch.clear();
            }
        }
    }
}

impl Handler for JoinFilter {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let is_build = ctx.msg().handler == BUILD_HANDLER;
        let payload = ctx.payload();
        let rb = self.p.record_bytes as usize;
        if is_build {
            // R streaming through: set bits, forward the record stream
            // onward to the host unchanged (the host builds the real
            // hash table from it).
            for rec in payload.chunks_exact(rb) {
                ctx.compute(cost::JOIN_HASH_INSTR);
                let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
                let bit = hash_bit(key, self.p.bits);
                // 128 KB bit-vector in switch memory: real D-cache
                // behaviour (the paper: "the bit-vector is too big for
                // its limited L1 data cache").
                ctx.mem_load(self.bv_base + bit / 8);
                ctx.mem_store(self.bv_base + bit / 8);
                self.bv[bit as usize] = true;
            }
            ctx.send(self.host, Some(BUILD_HANDLER), self.out_addr, &payload);
            self.out_addr = self.out_addr.wrapping_add(payload.len() as u32);
            self.seen += payload.len() as u64;
            if self.seen >= self.expect_r {
                self.seen = 0;
                self.out_addr = 0;
            }
        } else {
            for rec in payload.chunks_exact(rb) {
                ctx.compute(cost::JOIN_HASH_INSTR);
                let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
                let bit = hash_bit(key, self.p.bits);
                ctx.mem_load(self.bv_base + bit / 8);
                if self.bv[bit as usize] {
                    self.pass += 1;
                    if self.batch_buf.is_none() {
                        self.batch_buf = Some(ctx.alloc_buffer());
                    }
                    let buf = self.batch_buf.expect("just set");
                    ctx.buffer_write(buf, self.batch.len(), rec);
                    self.batch.extend_from_slice(rec);
                    if self.batch.len() + rb > asan_core::BUFFER_BYTES {
                        self.flush(ctx);
                    }
                }
            }
            self.seen += payload.len() as u64;
            if self.seen >= self.expect_s {
                self.flush(ctx);
                ctx.send(self.host, Some(DONE_HANDLER), 0, &self.pass.to_le_bytes());
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Active-case host program: R arrives via the switch (hash-table
/// build); filtered S arrives as batches (probe).
struct ActiveJoin {
    p: Params,
    reader: BlockReader,
    s_plan: BlockPlan,
    phase: u8,
    st: JoinState,
    bv_pass_reported: Option<u64>,
    r_bytes_in: u64,
}
snap_fields! {
    ActiveJoin {
        phase, reader, st, bv_pass_reported, r_bytes_in, static p, static s_plan,
    } after ActiveJoin::replan
}

impl ActiveJoin {
    /// As for [`NormalJoin`]: phase 1 reads through the S plan.
    fn replan(&mut self) -> Result<(), SnapError> {
        if self.phase == 1 {
            self.reader.replan(self.s_plan);
        }
        Ok(())
    }
}

impl HostProgram for ActiveJoin {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        if self.reader.on_complete(ctx, req).is_none() {
            return;
        }
        self.reader.refill(ctx);
        if self.reader.done() && self.phase == 0 {
            self.phase = 1;
            self.reader = BlockReader::new(self.s_plan);
            self.reader.start(ctx);
        }
        // Phase 1 end: wait for the DONE message (data may still be in
        // flight through the switch).
    }

    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        let rb = self.p.record_bytes as usize;
        if msg.handler == Some(DONE_HANDLER) {
            self.bv_pass_reported =
                Some(u64::from_le_bytes(msg.data[..8].try_into().expect("count")));
            ctx.finish();
        } else if msg.handler == Some(BUILD_HANDLER) {
            // R records: build the real hash table.
            self.r_bytes_in += msg.data.len() as u64;
            for rec in msg.data.chunks_exact(rb) {
                let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
                ctx.cpu()
                    .compute(cost::JOIN_HASH_INSTR + cost::JOIN_INSERT_INSTR);
                let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
                ctx.cpu().load(bucket);
                ctx.cpu().store(bucket);
                *self.st.table.entry(key).or_insert(0) += 1;
            }
        } else {
            // Surviving S records: the real join probe.
            for rec in msg.data.chunks_exact(rb) {
                let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
                self.st.bv_pass += 1;
                ctx.cpu().compute(cost::JOIN_PROBE_INSTR);
                let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
                ctx.cpu().load(bucket);
                ctx.cpu().load(bucket + 64); // bucket chain / key page
                if self.st.table.contains_key(&key) {
                    self.st.matches += 1;
                }
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Runs HashJoin in one configuration, validating pass and match
/// counts against the pure-Rust reference.
///
/// # Panics
///
/// Panics on any result mismatch.
pub fn run(variant: Variant, p: &Params) -> AppRun {
    run_with_config(variant, p, ClusterConfig::paper_db())
}

/// [`run`] with an explicit cluster configuration (used by the
/// ablation studies to vary the active-switch hardware).
pub fn run_with_config(variant: Variant, p: &Params, cfg: ClusterConfig) -> AppRun {
    let (r, s) = data::join_tables(
        p.r_bytes as usize,
        p.s_bytes as usize,
        p.record_bytes as usize,
    );
    let (want_pass, want_matches) = reference(&r, &s, p);
    let r = Arc::new(r);
    let s = Arc::new(s);

    let build = || {
        let (mut cl, hs, ts, sw) = standard_cluster(1, 1, cfg.clone());
        let rf = cl
            .add_file(ts[0], r.as_ref().clone())
            .expect("cluster setup");
        let sf = cl
            .add_file(ts[0], s.as_ref().clone())
            .expect("cluster setup");
        let host = hs[0];

        let filter = Shared::new(JoinFilter::new(p.clone(), host));
        if variant.is_active() {
            cl.register_handler(sw, BUILD_HANDLER, Box::new(filter.clone()))
                .expect("cluster setup");
            cl.register_handler(sw, PROBE_HANDLER, Box::new(filter.clone()))
                .expect("cluster setup");
            let s_plan = BlockPlan {
                file: sf,
                total: p.s_bytes,
                block: p.io_block,
                outstanding: variant.outstanding(),
                dest: Dest::Mapped {
                    node: sw,
                    handler: PROBE_HANDLER,
                    base_addr: 0,
                },
            };
            cl.set_program(
                host,
                Box::new(ActiveJoin {
                    p: p.clone(),
                    reader: BlockReader::new(BlockPlan {
                        file: rf,
                        total: p.r_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::Mapped {
                            node: sw,
                            handler: BUILD_HANDLER,
                            base_addr: 0,
                        },
                    }),
                    s_plan,
                    phase: 0,
                    st: JoinState::default(),
                    bv_pass_reported: None,
                    r_bytes_in: 0,
                }),
            )
            .expect("cluster setup");
        } else {
            let s_plan = BlockPlan {
                file: sf,
                total: p.s_bytes,
                block: p.io_block,
                outstanding: variant.outstanding(),
                dest: Dest::HostBuf { addr: S_BUF },
            };
            cl.set_program(
                host,
                Box::new(NormalJoin {
                    r: r.clone(),
                    s: s.clone(),
                    p: p.clone(),
                    phase: 0,
                    reader: BlockReader::new(BlockPlan {
                        file: rf,
                        total: p.r_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::HostBuf { addr: R_BUF },
                    }),
                    s_plan,
                    bv: BitVec(vec![false; p.bits as usize]),
                    st: JoinState::default(),
                }),
            )
            .expect("cluster setup");
        }
        (cl, (host, filter))
    };

    let (mut cl, (host, filter), report) = drive(&format!("hashjoin-{}", variant.label()), build);
    let (got_pass, got_matches) = if variant.is_active() {
        let program = cl.take_program(host).expect("program");
        let prog = program
            .as_any()
            .and_then(|a| a.downcast_ref::<ActiveJoin>())
            .expect("active join");
        assert_eq!(prog.r_bytes_in, p.r_bytes, "R did not fully reach host");
        assert_eq!(prog.bv_pass_reported, Some(want_pass), "switch pass count");
        assert_eq!(filter.inner().pass_count(), want_pass, "filter state");
        (prog.st.bv_pass, prog.st.matches)
    } else {
        let program = cl.take_program(host).expect("program");
        let prog = program
            .as_any()
            .and_then(|a| a.downcast_ref::<NormalJoin>())
            .expect("normal join");
        (prog.st.bv_pass, prog.st.matches)
    };
    assert_eq!(got_pass, want_pass, "bit-vector pass count mismatch");
    assert_eq!(got_matches, want_matches, "join match count mismatch");
    AppRun::from_report(variant, &cl, &report, report.finish, got_matches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_pass_rate_near_024() {
        let p = Params::small();
        let (r, s) = data::join_tables(
            p.r_bytes as usize,
            p.s_bytes as usize,
            p.record_bytes as usize,
        );
        let (pass, matches) = reference(&r, &s, &p);
        let rate = pass as f64 / (s.len() as f64 / 128.0);
        assert!((0.16..0.34).contains(&rate), "pass rate {rate}");
        assert!(matches <= pass);
        assert!(matches > 0);
    }

    #[test]
    fn all_variants_agree() {
        let p = Params::small();
        let runs: Vec<AppRun> = Variant::ALL.iter().map(|&v| run(v, &p)).collect();
        let m = runs[0].artifact;
        for r in &runs {
            assert_eq!(r.artifact, m, "{:?}", r.variant);
        }
    }

    #[test]
    fn active_cuts_s_traffic() {
        let p = Params::small();
        let normal = run(Variant::NormalPref, &p);
        let active = run(Variant::ActivePref, &p);
        assert!(
            active.host_traffic < normal.host_traffic / 2,
            "active {} vs normal {}",
            active.host_traffic,
            normal.host_traffic
        );
    }
}
