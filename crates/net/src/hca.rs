//! Host channel adapter model.
//!
//! The paper's HCA (§4) sits on the memory controller and exposes a
//! queue-pair interface to user programs; receivers poll for completions
//! (§5, Collective Reduction: "The message receiver uses polling instead
//! of interrupts"). The costs that matter at system level are the
//! per-message send overhead (building a WQE, ringing the doorbell) and
//! the per-message receive overhead (polling the completion queue and
//! touching the landed data) — together these form the paper's `α`, the
//! fixed overhead of message communication.

use asan_cpu::Cpu;
use asan_sim::snap_fields;
use asan_sim::{SimDuration, SimTime};

/// Cost parameters of one HCA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HcaConfig {
    /// Host instructions to post a send work-queue element and ring the
    /// doorbell.
    pub send_instr: u64,
    /// Host instructions to poll and consume one completion.
    pub recv_instr: u64,
    /// Adapter-side latency from doorbell to first byte on the wire
    /// (descriptor fetch, DMA start).
    pub send_latency: SimDuration,
    /// Adapter-side latency from last byte off the wire to the
    /// completion entry being visible to a polling host.
    pub recv_latency: SimDuration,
}

impl HcaConfig {
    /// Calibrated to an early-2000s InfiniBand HCA and its user-level
    /// software stack: posting a send costs ~2 µs of host instructions
    /// (descriptor build, doorbell, completion bookkeeping), polling a
    /// receive ~0.6 µs, and the adapter adds ~2 µs each way — together
    /// the paper's fixed message overhead α lands near 7–8 µs.
    pub fn paper() -> Self {
        HcaConfig {
            send_instr: 4_000,
            recv_instr: 1_200,
            send_latency: SimDuration::from_us(2),
            recv_latency: SimDuration::from_us(2),
        }
    }
}

/// A host channel adapter bound to one host.
///
/// The HCA itself is stateless between messages at this fidelity; it
/// charges CPU time for the queue-pair interaction and adds its fixed
/// latencies. Doorbell-to-wire pipelining across messages is modeled by
/// the fabric's link occupancy, not here.
#[derive(Debug, Clone)]
pub struct Hca {
    cfg: HcaConfig,
    sends: u64,
    recvs: u64,
}

impl Hca {
    /// Creates an HCA.
    pub fn new(cfg: HcaConfig) -> Self {
        Hca {
            cfg,
            sends: 0,
            recvs: 0,
        }
    }

    /// The configured costs.
    pub fn config(&self) -> &HcaConfig {
        &self.cfg
    }

    /// Messages sent through this adapter.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Messages received through this adapter.
    pub fn recvs(&self) -> u64 {
        self.recvs
    }

    /// Charges the host CPU for posting a send and returns the time at
    /// which the message is ready at the wire.
    pub fn post_send(&mut self, cpu: &mut Cpu) -> SimTime {
        self.sends += 1;
        cpu.compute(self.cfg.send_instr);
        cpu.now() + self.cfg.send_latency
    }

    /// The time a message that finished arriving at `arrival` becomes
    /// visible to a polling receiver.
    pub fn completion_visible(&mut self, arrival: SimTime) -> SimTime {
        self.recvs += 1;
        arrival + self.cfg.recv_latency
    }

    /// Charges the host CPU for consuming one completion (poll hit plus
    /// descriptor recycling).
    pub fn consume_completion(&self, cpu: &mut Cpu) {
        cpu.compute(self.cfg.recv_instr);
    }
}

snap_fields! { Hca { sends, recvs, static cfg } }

#[cfg(test)]
mod tests {
    use super::*;
    use asan_cpu::CpuConfig;

    #[test]
    fn post_send_charges_cpu_and_adds_latency() {
        let mut hca = Hca::new(HcaConfig::paper());
        let mut cpu = Cpu::new(CpuConfig::host());
        let t = hca.post_send(&mut cpu);
        assert_eq!(hca.sends(), 1);
        // 4000 instructions at 2 GHz = 2 us busy (plus ifetch stalls),
        // then the adapter's send latency.
        assert_eq!(t, cpu.now() + hca.config().send_latency);
        assert!(cpu.breakdown().busy.as_us() >= 2);
    }

    #[test]
    fn completion_visible_after_recv_latency() {
        let mut hca = Hca::new(HcaConfig::paper());
        let t = hca.completion_visible(SimTime::from_us(10));
        assert_eq!(t, SimTime::from_us(10) + hca.config().recv_latency);
        assert_eq!(hca.recvs(), 1);
    }

    #[test]
    fn consume_completion_charges_cpu() {
        let hca = Hca::new(HcaConfig::paper());
        let mut cpu = Cpu::new(CpuConfig::host());
        hca.consume_completion(&mut cpu);
        assert!(cpu.instructions() >= 1_200);
    }
}
