//! The simulated platform: data memory, optional cache, MMIO devices and
//! the shared-port arbitration.
//!
//! Implements [`DataBus`] for the core engine and routes RTOSUnit
//! accesses:
//!
//! * on **CV32E40P** there is no cache: unit accesses use idle cycles of
//!   the single tightly coupled SRAM port (§5.1);
//! * on **CVA6** the unit arbitrates at the **bus level**, bypassing the
//!   write-through cache; core misses/write-throughs occupy the bus and
//!   block the unit (§5.2);
//! * on **NaxRiscv** the unit sits **inside the LSU** (ctxQueue, §5.3) and
//!   shares the write-back cache — its accesses see hit/miss latency but
//!   also warm the cache for the core.

use crate::ctxqueue::CtxQueue;
use crate::events::{EventTrace, PhaseCode, TraceEvent, TraceMark};
use crate::layout::*;
use crate::smp::SmpShared;
use rvsim_cores::engine::{BusResponse, DataBus};
use rvsim_cores::CoreKind;
use rvsim_isa::csr;
use rvsim_mem::{AccessSize, Arbiter, Cache, Mem, PortClient};
use rvsim_snapshot::{self as snap, Json, SnapError};
use std::cell::RefCell;
use std::rc::Rc;

/// This platform's attachment to an SMP composition: its hart id (= bus
/// master index) and the shared bus/mailbox state.
#[derive(Debug)]
struct SmpLink {
    hart: usize,
    shared: Rc<RefCell<SmpShared>>,
}

/// Memory-mapped devices: CLINT-like timer/software-interrupt block plus
/// simulation conveniences (console, halt, trace markers).
#[derive(Debug, Clone)]
pub struct Mmio {
    /// Machine time: the platform cycle, incremented every cycle (the
    /// guest reads its low 32 bits).
    pub mtime: u64,
    /// Timer compare value; MTIP is raised when `mtime - mtimecmp`
    /// (modular) is non-negative.
    pub mtimecmp: u32,
    /// Software-interrupt pending line.
    pub msip: bool,
    /// External-interrupt pending line.
    pub ext_pending: bool,
    /// When set, the platform re-arms `mtimecmp += period` on timer-ISR
    /// entry — the auto-reset timer modification of (T), §4.4.
    pub auto_timer_reset: bool,
    /// Tick period in cycles.
    pub timer_period: u32,
    /// Set when the guest writes the HALT register.
    pub halted: bool,
    /// Attention latch: a guest MMIO write changed interrupt/halt state,
    /// so any precomputed quiescence horizon is stale. Consumed (cleared)
    /// by [`DataBus::take_attention`] during batched execution.
    attention: bool,
    /// Typed TRACE writes: benchmark marks and kernel phase marks.
    pub trace_marks: Vec<TraceMark>,
    /// Values written to the console register.
    pub console: Vec<u32>,
}

impl Mmio {
    fn new(timer_period: u32) -> Mmio {
        Mmio {
            mtime: 0,
            mtimecmp: timer_period,
            msip: false,
            ext_pending: false,
            auto_timer_reset: false,
            timer_period,
            halted: false,
            attention: false,
            trace_marks: Vec::new(),
            console: Vec::new(),
        }
    }

    fn timer_pending(&self) -> bool {
        // Modular comparison tolerates mtime wrap-around.
        (self.mtime as u32).wrapping_sub(self.mtimecmp) as i32 >= 0
    }

    /// Cycles until MTIP first rises, or `None` when it is already
    /// pending — the line then only changes through an MMIO write, which
    /// raises the attention latch. Used to bound quiescent batches.
    pub fn cycles_until_timer_fire(&self) -> Option<u64> {
        if self.timer_pending() {
            None
        } else {
            Some(u64::from(self.mtimecmp.wrapping_sub(self.mtime as u32)))
        }
    }

    /// The `mip` bit mask implied by the current device state.
    pub fn pending_mask(&self) -> u32 {
        let mut mask = 0;
        if self.timer_pending() {
            mask |= csr::MIP_MTIP;
        }
        if self.msip {
            mask |= csr::MIP_MSIP;
        }
        if self.ext_pending {
            mask |= csr::MIP_MEIP;
        }
        mask
    }

    fn read(&self, addr: u32) -> u32 {
        match addr & !0x3 {
            MMIO_MTIME => self.mtime as u32,
            MMIO_MTIMECMP => self.mtimecmp,
            MMIO_MSIP => u32::from(self.msip),
            _ => 0,
        }
    }

    /// Serializes the device block for a machine-state snapshot. Trace
    /// marks are one flat `[cycle, code, ...]` array, the console a plain
    /// array. Whether the timer auto-resets is the preset's.
    pub fn to_snap(&self) -> Json {
        let marks = snap::rows_to_json(
            self.trace_marks
                .iter()
                .map(|m| [m.cycle, u64::from(m.code)]),
        );
        Json::object()
            .with("mtime", self.mtime)
            .with("mtimecmp", self.mtimecmp)
            .with("msip", self.msip)
            .with("ext_pending", self.ext_pending)
            .with("timer_period", self.timer_period)
            .with("halted", self.halted)
            .with("attention", self.attention)
            .with("trace_marks", marks)
            .with("console", snap::list_to_json(&self.console))
    }

    /// Rebuilds the device block from [`to_snap`](Self::to_snap) output,
    /// with the caller's `auto_timer_reset`.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields.
    pub fn from_snap(value: &Json, auto_timer_reset: bool) -> Result<Mmio, SnapError> {
        let trace_marks = snap::rows_from_json(snap::field(value, "trace_marks")?, "trace_marks")?
            .into_iter()
            .map(|[cycle, code]| {
                let code = u32::try_from(code)
                    .map_err(|_| SnapError::new("trace_marks: code exceeds u32 range"))?;
                Ok(TraceMark { cycle, code })
            })
            .collect::<Result<_, SnapError>>()?;
        Ok(Mmio {
            mtime: snap::get_u64(value, "mtime")?,
            mtimecmp: snap::get_u32(value, "mtimecmp")?,
            msip: snap::get_bool(value, "msip")?,
            ext_pending: snap::get_bool(value, "ext_pending")?,
            auto_timer_reset,
            timer_period: snap::get_u32(value, "timer_period")?,
            halted: snap::get_bool(value, "halted")?,
            attention: snap::get_bool(value, "attention")?,
            trace_marks,
            console: snap::list_from_json(snap::field(value, "console")?, "console")?,
        })
    }

    fn write(&mut self, addr: u32, value: u32) {
        match addr & !0x3 {
            MMIO_MTIMECMP => {
                self.mtimecmp = value;
                self.attention = true;
            }
            MMIO_MSIP => {
                self.msip = value & 1 != 0;
                self.attention = true;
            }
            MMIO_EXT_ACK => {
                self.ext_pending = false;
                self.attention = true;
            }
            MMIO_CONSOLE => self.console.push(value),
            MMIO_HALT => {
                self.halted = true;
                self.attention = true;
            }
            MMIO_TRACE => self.trace_marks.push(TraceMark {
                cycle: self.mtime,
                code: value,
            }),
            _ => {}
        }
    }
}

/// The data-side platform for one simulated system. See the
/// [module docs](self).
#[derive(Debug)]
pub struct Platform {
    /// Data memory (also backs cached accesses — the cache model is
    /// timing-only).
    pub dmem: Mem,
    dcache: Option<Cache>,
    /// ctxQueue (paper §5.3): present exactly when the unit arbitrates
    /// inside the LSU and shares the cache.
    ctx_queue: Option<CtxQueue>,
    /// Port arbiter; its `Core` grant is what keeps the unit off the port
    /// in a cycle the core used.
    arb: Arbiter,
    /// Cycles the downstream bus stays busy from a core access.
    bus_busy: u32,
    /// MMIO devices.
    pub mmio: Mmio,
    /// Event sink; `None` (the default) makes every record site a single
    /// `Option` check and nothing else.
    trace: Option<EventTrace>,
    /// SMP attachment; `None` (the default) keeps the single-hart fast
    /// path byte-identical to the pre-SMP platform.
    smp: Option<SmpLink>,
    /// Armed bus-error latch (fault injection): the next data-memory load
    /// returns the all-ones poison pattern instead of the stored word.
    bus_error_armed: bool,
}

impl Platform {
    /// Creates the platform for `kind` with the default memory map and
    /// tick period.
    pub fn new(kind: CoreKind, timer_period: u32) -> Platform {
        Platform {
            dmem: Mem::new(DMEM_BASE, DMEM_SIZE),
            dcache: kind.dcache().map(Cache::new),
            ctx_queue: kind.unit_shares_cache().then(|| CtxQueue::new(8)),
            arb: Arbiter::new(),
            bus_busy: 0,
            mmio: Mmio::new(timer_period),
            trace: None,
            smp: None,
            bus_error_armed: false,
        }
    }

    /// Arms a bus-error response: the next core data-memory *load*
    /// returns `0xFFFF_FFFF` instead of the stored word (fault
    /// injection). Consumed by that load; idempotent until then.
    pub fn arm_bus_error(&mut self) {
        self.bus_error_armed = true;
    }

    /// Attaches this platform to an SMP composition as bus master `hart`.
    /// From here on, core-side DMEM traffic competes for the shared bus
    /// and the IPI doorbell registers become live.
    pub fn attach_smp(&mut self, hart: usize, shared: Rc<RefCell<SmpShared>>) {
        self.smp = Some(SmpLink { hart, shared });
    }

    /// Whether an IPI is queued for this hart (drives `mip.MSIP` in
    /// addition to the local `msip` latch).
    pub fn ipi_pending(&self) -> bool {
        match &self.smp {
            Some(link) => link.shared.borrow().ipi_pending(link.hart),
            None => false,
        }
    }

    /// Charges the shared bus for a `beats`-cycle transaction, returning
    /// the arbitration wait in cycles. Zero when standalone.
    fn shared_bus_wait(&mut self, beats: u32) -> u32 {
        match &self.smp {
            Some(link) => link
                .shared
                .borrow_mut()
                .bus
                .acquire(link.hart, self.mmio.mtime, beats) as u32,
            None => 0,
        }
    }

    /// Enables event tracing with a ring retaining the most recent
    /// `capacity` events. Off by default.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(EventTrace::new(capacity));
    }

    /// The event trace, when tracing is enabled.
    pub fn trace(&self) -> Option<&EventTrace> {
        self.trace.as_ref()
    }

    /// Takes the trace out (disabling further tracing).
    pub fn take_trace(&mut self) -> Option<EventTrace> {
        self.trace.take()
    }

    /// Records an event at the current cycle when tracing is enabled.
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(self.mmio.mtime, event);
        }
    }

    /// Overrides the ctxQueue depth (ablation for §5.3's Pareto claim).
    /// Only meaningful when the unit shares the cache.
    pub fn set_ctx_queue_depth(&mut self, depth: usize) {
        if self.ctx_queue.is_some() {
            self.ctx_queue = Some(CtxQueue::new(depth));
        }
    }

    /// Overrides the arbitration level (§5's integration decision):
    /// `true` = inside the LSU, sharing the cache through a ctxQueue;
    /// `false` = at the bus, bypassing the cache.
    pub fn set_unit_arbitration(&mut self, shares_cache: bool) {
        self.ctx_queue = shares_cache.then(|| CtxQueue::new(8));
    }

    /// `(issued, full-stall)` counters of the ctxQueue, if present.
    pub fn ctx_queue_stats(&self) -> Option<(u64, u64)> {
        self.ctx_queue.as_ref().map(|q| q.stats())
    }

    /// Starts a new cycle: advances time and decays busy counters. Must be
    /// called once per cycle before the core steps.
    pub fn begin_cycle(&mut self) {
        self.arb.end_cycle();
        self.mmio.mtime += 1;
        self.bus_busy = self.bus_busy.saturating_sub(1);
    }

    /// Current platform cycle (the MMIO machine time).
    pub fn cycle(&self) -> u64 {
        self.mmio.mtime
    }

    /// Raises the external interrupt line (cleared by a guest write to
    /// `MMIO_EXT_ACK`).
    pub fn raise_external_irq(&mut self) {
        self.mmio.ext_pending = true;
    }

    /// Re-arms the timer after an auto-reset entry (called by the system
    /// when (T) is enabled and a timer interrupt is taken, §4.4).
    pub fn auto_reset_timer(&mut self) {
        self.mmio.mtimecmp = self.mmio.mtimecmp.wrapping_add(self.mmio.timer_period);
    }

    /// The data cache, if the core has one.
    pub fn dcache(&self) -> Option<&Cache> {
        self.dcache.as_ref()
    }

    /// Port occupancy `(total, core, unit)` counters.
    pub fn port_occupancy(&self) -> (u64, u64, u64) {
        self.arb.occupancy()
    }

    fn is_mmio(addr: u32) -> bool {
        (MMIO_BASE..MMIO_END).contains(&addr)
    }

    /// Serializes the full platform state (memory, cache, queues,
    /// arbitration, devices, trace ring) for a machine-state snapshot.
    ///
    /// The SMP attachment is deliberately **not** captured: it is wiring,
    /// not state, and is re-established by the restoring composition
    /// (per-hart shared-bus state lives in [`SmpShared`]).
    pub fn to_snap(&self) -> Json {
        Json::object()
            .with("dmem", self.dmem.to_snap())
            .with(
                "dcache",
                self.dcache.as_ref().map_or(Json::Null, |c| c.to_snap()),
            )
            .with(
                "ctx_queue",
                self.ctx_queue.as_ref().map_or(Json::Null, |q| q.to_snap()),
            )
            .with("arb", self.arb.to_snap())
            .with("bus_busy", self.bus_busy)
            .with("mmio", self.mmio.to_snap())
            .with(
                "trace",
                self.trace.as_ref().map_or(Json::Null, |t| t.to_snap()),
            )
            .with("bus_error_armed", self.bus_error_armed)
    }

    /// Builds the platform for `kind` from [`to_snap`](Self::to_snap)
    /// output: DMEM at the memory map's geometry, allocated once, and the
    /// data cache `kind` has. `auto_timer_reset` is the preset's. The
    /// result has no SMP attachment.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields, nested component errors, or a data
    /// cache in the document of a core without one.
    pub fn from_snap(
        kind: CoreKind,
        auto_timer_reset: bool,
        value: &Json,
    ) -> Result<Platform, SnapError> {
        let dcache = match (kind.dcache(), snap::field(value, "dcache")?) {
            (Some(cfg), v) => Some(Cache::from_snap(v, cfg)?),
            (None, Json::Null) => None,
            (None, _) => {
                return Err(SnapError::new(format!(
                    "platform: data cache in a snapshot of core `{kind}`"
                )))
            }
        };
        Ok(Platform {
            dmem: Mem::from_snap(snap::field(value, "dmem")?, DMEM_BASE, DMEM_SIZE)?,
            dcache,
            ctx_queue: snap::get_opt(value, "ctx_queue", CtxQueue::from_snap)?,
            arb: Arbiter::from_snap(snap::field(value, "arb")?)?,
            bus_busy: snap::get_u32(value, "bus_busy")?,
            mmio: Mmio::from_snap(snap::field(value, "mmio")?, auto_timer_reset)?,
            trace: snap::get_opt(value, "trace", EventTrace::from_snap)?,
            smp: None,
            bus_error_armed: snap::get_bool(value, "bus_error_armed")?,
        })
    }
}

impl Platform {
    /// A core access to the MMIO window: the device registers, plus the
    /// IPI doorbells when attached to an SMP composition. Out of line and
    /// cold, so that the per-access DMEM path of
    /// [`core_access`](DataBus::core_access) stays small.
    #[cold]
    #[inline(never)]
    fn mmio_access(&mut self, addr: u32, write: Option<u32>) -> BusResponse {
        // IPI doorbell registers, live only with an SMP attachment;
        // intercepted here so `Mmio` itself stays single-hart.
        if let Some(link) = &self.smp {
            match (addr & !0x3, write) {
                (MMIO_IPI_SEND, Some(v)) => {
                    link.shared
                        .borrow_mut()
                        .send_ipi((v >> 8) as usize, v & 0xFF);
                    return BusResponse {
                        data: 0,
                        extra_latency: 0,
                    };
                }
                (MMIO_IPI_RECV, None) => {
                    let hart = link.hart;
                    let code = link.shared.borrow_mut().recv_ipi(hart);
                    return BusResponse {
                        data: code,
                        extra_latency: 1,
                    };
                }
                _ => {}
            }
        }
        match write {
            Some(v) => {
                self.mmio.write(addr, v);
                if self.trace.is_some() {
                    match addr & !0x3 {
                        MMIO_TRACE => self.record(match PhaseCode::decode(v) {
                            Some(p) => TraceEvent::Phase(p),
                            None => match crate::events::decode_fault_mark(v) {
                                Some(detector) => TraceEvent::FaultDetected { detector },
                                None => TraceEvent::GuestMark { value: v },
                            },
                        }),
                        MMIO_HALT => self.record(TraceEvent::Halted),
                        _ => {}
                    }
                }
                BusResponse {
                    data: 0,
                    extra_latency: 0,
                }
            }
            None => BusResponse {
                data: self.mmio.read(addr),
                extra_latency: 1,
            },
        }
    }
}

impl DataBus for Platform {
    #[inline]
    fn core_access(&mut self, addr: u32, size: AccessSize, write: Option<u32>) -> BusResponse {
        self.arb.core_request();
        if Self::is_mmio(addr) {
            return self.mmio_access(addr, write);
        }

        let data = match write {
            Some(v) => {
                self.dmem.write(addr, size, v);
                0
            }
            None if self.bus_error_armed => {
                // Poisoned response: the slave still performs the read
                // (timing is unchanged) but the returned beats are junk.
                self.dmem.read(addr, size);
                self.bus_error_armed = false;
                0xFFFF_FFFF
            }
            None => self.dmem.read(addr, size),
        };

        match self.dcache.as_mut() {
            Some(cache) => {
                let out = cache.access(addr, write.is_some());
                self.bus_busy = self.bus_busy.max(out.bus_cycles);
                if self.trace.is_some() {
                    self.record(TraceEvent::CacheAccess {
                        hit: out.hit,
                        write: write.is_some(),
                    });
                }
                let mut extra = if write.is_some() {
                    out.latency.saturating_sub(1)
                } else {
                    out.latency
                };
                // Only traffic that leaves the cache (refills,
                // write-throughs) crosses the shared SMP bus.
                if out.bus_cycles > 0 {
                    extra += self.shared_bus_wait(out.bus_cycles);
                }
                BusResponse {
                    data,
                    extra_latency: extra,
                }
            }
            None => {
                // Tightly coupled single-cycle SRAM (§6.1). Uncached
                // cores put every access on the shared SMP bus.
                let extra = if write.is_some() { 0 } else { 1 };
                BusResponse {
                    data,
                    extra_latency: extra + self.shared_bus_wait(1),
                }
            }
        }
    }

    #[inline]
    fn unit_access(&mut self, addr: u32, write: Option<u32>) -> Option<u32> {
        // The processor always has priority (§4.2 (2)); the bus must also
        // be free of refill/write-through traffic.
        if self.arb.grant() == Some(PortClient::Core) || self.bus_busy > 0 {
            return None;
        }
        if let Some(q) = self.ctx_queue.as_mut() {
            // LSU-level arbitration: the access goes through the cache and
            // a ctxQueue entry (§5.3). A full queue stalls the FSM.
            let latency = match self.dcache.as_mut() {
                Some(cache) => cache.access(addr, write.is_some()).latency,
                None => 1,
            };
            if !q.try_issue(self.mmio.mtime, latency) {
                return None;
            }
        }
        if !self.arb.unit_try_acquire() {
            return None;
        }
        let data = match write {
            Some(v) => {
                self.dmem.write_word(addr, v);
                0
            }
            None => self.dmem.read_word(addr),
        };
        if self.trace.is_some() {
            self.record(TraceEvent::UnitOp {
                write: write.is_some(),
            });
        }
        Some(data)
    }

    fn dedicated_access(&mut self, addr: u32, write: Option<u32>) -> u32 {
        // CV32RT's second memory port: no arbitration, bypasses the cache.
        match write {
            Some(v) => {
                self.dmem.write_word(addr, v);
                0
            }
            None => self.dmem.read_word(addr),
        }
    }

    fn invalidate_line(&mut self, addr: u32) {
        if let Some(cache) = self.dcache.as_mut() {
            cache.invalidate_line(addr);
        }
    }

    #[inline]
    fn unit_pending(&self) -> u32 {
        match &self.ctx_queue {
            Some(q) => q.pending_at(self.mmio.mtime) as u32,
            None => 0,
        }
    }

    #[inline]
    fn advance_cycles(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        // First closure also settles the previous cycle's grant, exactly
        // like `begin_cycle`; the remaining cycles are guaranteed idle.
        self.arb.end_cycle();
        self.arb.skip_idle_cycles(cycles - 1);
        self.mmio.mtime += cycles;
        self.bus_busy = self
            .bus_busy
            .saturating_sub(cycles.min(u64::from(u32::MAX)) as u32);
    }

    #[inline]
    fn take_attention(&mut self) -> bool {
        std::mem::take(&mut self.mmio.attention)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmio_timer_fires_and_rearm_clears() {
        let mut p = Platform::new(CoreKind::Cv32e40p, 100);
        for _ in 0..99 {
            p.begin_cycle();
        }
        assert_eq!(p.mmio.pending_mask(), 0);
        p.begin_cycle();
        assert_eq!(p.mmio.pending_mask(), csr::MIP_MTIP);
        // Guest re-arms the comparator.
        p.core_access(
            MMIO_MTIMECMP,
            AccessSize::Word,
            Some(p.mmio.mtime as u32 + 100),
        );
        assert_eq!(p.mmio.pending_mask(), 0);
    }

    #[test]
    fn msip_and_ext_lines() {
        let mut p = Platform::new(CoreKind::Cv32e40p, 1000);
        p.core_access(MMIO_MSIP, AccessSize::Word, Some(1));
        assert_eq!(p.mmio.pending_mask() & csr::MIP_MSIP, csr::MIP_MSIP);
        p.core_access(MMIO_MSIP, AccessSize::Word, Some(0));
        assert_eq!(p.mmio.pending_mask(), 0);
        p.raise_external_irq();
        assert_eq!(p.mmio.pending_mask(), csr::MIP_MEIP);
        p.core_access(MMIO_EXT_ACK, AccessSize::Word, Some(1));
        assert_eq!(p.mmio.pending_mask(), 0);
    }

    #[test]
    fn unit_blocked_while_core_uses_port() {
        let mut p = Platform::new(CoreKind::Cv32e40p, 1000);
        p.begin_cycle();
        p.core_access(DMEM_BASE, AccessSize::Word, Some(5));
        assert_eq!(p.unit_access(DMEM_BASE + 4, Some(7)), None);
        p.begin_cycle();
        assert_eq!(p.unit_access(DMEM_BASE + 4, Some(7)), Some(0));
        assert_eq!(p.dmem.read_word(DMEM_BASE + 4), 7);
    }

    #[test]
    fn cache_miss_refill_blocks_the_bus_for_the_unit() {
        let mut p = Platform::new(CoreKind::Cva6, 1000);
        p.begin_cycle();
        let resp = p.core_access(DMEM_BASE, AccessSize::Word, None);
        assert!(resp.extra_latency > 1, "first access must miss");
        // Refill traffic occupies the bus for the following cycles.
        p.begin_cycle();
        assert_eq!(p.unit_access(DMEM_BASE + 64, None), None);
        // After the refill drains, the unit gets through.
        for _ in 0..8 {
            p.begin_cycle();
        }
        assert!(p.unit_access(DMEM_BASE + 64, None).is_some());
    }

    #[test]
    fn ctx_queue_pipelines_misses_until_full() {
        let mut p = Platform::new(CoreKind::NaxRiscv, 1000);
        // Eight accesses to distinct lines (all misses) pipeline into the
        // queue back-to-back...
        for i in 0..8 {
            p.begin_cycle();
            assert!(
                p.unit_access(DMEM_BASE + i * 64, None).is_some(),
                "miss {i} must pipeline"
            );
        }
        // ...the ninth stalls on the full queue.
        p.begin_cycle();
        assert_eq!(p.unit_access(DMEM_BASE + 8 * 64, None), None, "queue full");
        assert!(p.unit_pending() > 0);
        // After the oldest miss drains, issuing resumes.
        for _ in 0..25 {
            p.begin_cycle();
        }
        assert!(p.unit_access(DMEM_BASE + 8 * 64, None).is_some());
    }

    #[test]
    fn arbitration_override_switches_models() {
        let mut p = Platform::new(CoreKind::NaxRiscv, 1000);
        p.set_unit_arbitration(false); // bus level: no queue, bypass cache
        assert!(p.ctx_queue_stats().is_none());
        p.begin_cycle();
        assert!(p.unit_access(DMEM_BASE, None).is_some());
        assert_eq!(p.unit_pending(), 0);
    }

    #[test]
    fn halt_trace_console_devices() {
        let mut p = Platform::new(CoreKind::Cv32e40p, 1000);
        p.begin_cycle();
        p.core_access(MMIO_CONSOLE, AccessSize::Word, Some(42));
        p.core_access(MMIO_TRACE, AccessSize::Word, Some(7));
        assert!(!p.mmio.halted);
        p.core_access(MMIO_HALT, AccessSize::Word, Some(1));
        assert!(p.mmio.halted);
        assert_eq!(p.mmio.console, vec![42]);
        assert_eq!(p.mmio.trace_marks, vec![TraceMark { cycle: 1, code: 7 }]);
    }

    #[test]
    fn tracing_records_typed_events_when_enabled() {
        let mut p = Platform::new(CoreKind::Cva6, 1000);
        assert!(p.trace().is_none(), "tracing defaults off");
        p.enable_tracing(64);
        p.begin_cycle();
        p.core_access(DMEM_BASE, AccessSize::Word, None); // miss
        p.begin_cycle();
        p.core_access(DMEM_BASE, AccessSize::Word, None); // hit
        p.core_access(MMIO_TRACE, AccessSize::Word, Some(0xE1));
        p.core_access(
            MMIO_TRACE,
            AccessSize::Word,
            Some(PhaseCode::SaveDone.encode()),
        );
        p.core_access(MMIO_HALT, AccessSize::Word, Some(1));
        let t = p.take_trace().expect("trace present");
        let kinds: Vec<&str> = t.iter().map(|(_, e)| e.kind()).collect();
        assert_eq!(
            kinds,
            vec!["cache", "cache", "guest_mark", "phase", "halted"]
        );
        let hits: Vec<bool> = t
            .of_kind("cache")
            .map(|(_, e)| match e {
                TraceEvent::CacheAccess { hit, .. } => hit,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(hits, vec![false, true]);
        assert!(p.trace().is_none(), "take_trace disables tracing");
    }

    #[test]
    fn bulk_advance_matches_per_cycle_begin() {
        let mut a = Platform::new(CoreKind::Cv32e40p, 100);
        let mut b = Platform::new(CoreKind::Cv32e40p, 100);
        for _ in 0..73 {
            a.begin_cycle();
        }
        b.advance_cycles(73);
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(a.port_occupancy(), b.port_occupancy());
        assert_eq!(a.mmio.pending_mask(), b.mmio.pending_mask());
        assert_eq!(a.mmio.cycles_until_timer_fire(), Some(27));
    }

    #[test]
    fn mmio_writes_raise_attention() {
        let mut p = Platform::new(CoreKind::Cv32e40p, 100);
        assert!(!p.take_attention());
        p.begin_cycle();
        p.core_access(MMIO_MTIMECMP, AccessSize::Word, Some(500));
        assert!(p.take_attention());
        assert!(!p.take_attention(), "attention is consumed on read");
        p.core_access(MMIO_CONSOLE, AccessSize::Word, Some(1));
        assert!(!p.take_attention(), "console writes do not raise attention");
    }

    #[test]
    fn auto_reset_rearm_advances_by_period() {
        let mut p = Platform::new(CoreKind::Cv32e40p, 50);
        for _ in 0..50 {
            p.begin_cycle();
        }
        assert!(p.mmio.pending_mask() & csr::MIP_MTIP != 0);
        p.auto_reset_timer();
        assert_eq!(p.mmio.pending_mask() & csr::MIP_MTIP, 0);
        assert_eq!(p.mmio.mtimecmp, 100);
    }
}
