//! Machine-mode CSR file.

use rvsim_isa::csr;
use rvsim_snapshot::{self as snap, Json, SnapError};

/// The machine-mode CSRs used by the FreeRTOS execution scenario.
///
/// `mstatus` and `mepc` are part of every task context (paper §3); the
/// others drive trap handling. `mcycle` is not stored here: the engine
/// answers guest reads of it from its own cycle counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csrs {
    /// Machine status (only MIE/MPIE/MPP modelled).
    pub mstatus: u32,
    /// Machine interrupt enable.
    pub mie: u32,
    /// Machine interrupt pending (set by the platform each cycle).
    pub mip: u32,
    /// Trap vector base address (direct mode).
    pub mtvec: u32,
    /// Exception PC.
    pub mepc: u32,
    /// Trap cause.
    pub mcause: u32,
    /// Scratch register.
    pub mscratch: u32,
    /// Hardware thread id (read-only; set by the SMP composition).
    pub mhartid: u32,
}

impl Csrs {
    /// Reads a CSR by address. Unknown addresses, and `mcycle` (which the
    /// engine supplies), read as zero: this model does not trap on CSR
    /// access.
    pub fn read(&self, addr: u16) -> u32 {
        match addr {
            csr::MSTATUS => self.mstatus,
            csr::MIE => self.mie,
            csr::MIP => self.mip,
            csr::MTVEC => self.mtvec,
            csr::MEPC => self.mepc,
            csr::MCAUSE => self.mcause,
            csr::MSCRATCH => self.mscratch,
            csr::MHARTID => self.mhartid,
            _ => 0,
        }
    }

    /// Writes a CSR by address. Read-only and unknown CSRs ignore writes.
    pub fn write(&mut self, addr: u16, value: u32) {
        match addr {
            csr::MSTATUS => self.mstatus = value,
            csr::MIE => self.mie = value,
            // mip is wholly platform-controlled in this model.
            csr::MIP => {}
            csr::MTVEC => self.mtvec = value & !0b11,
            csr::MEPC => self.mepc = value & !0b1,
            csr::MCAUSE => self.mcause = value,
            csr::MSCRATCH => self.mscratch = value,
            csr::MCYCLE | csr::MHARTID => {}
            _ => {}
        }
    }

    /// Whether machine interrupts are globally enabled.
    pub fn mie_enabled(&self) -> bool {
        self.mstatus & csr::MSTATUS_MIE != 0
    }

    /// The highest-priority pending-and-enabled interrupt cause, if any
    /// (external > software > timer, per the RISC-V priority order).
    pub fn pending_interrupt(&self) -> Option<u32> {
        let active = self.mip & self.mie;
        if active & csr::MIP_MEIP != 0 {
            Some(csr::CAUSE_EXTERNAL)
        } else if active & csr::MIP_MSIP != 0 {
            Some(csr::CAUSE_SOFTWARE)
        } else if active & csr::MIP_MTIP != 0 {
            Some(csr::CAUSE_TIMER)
        } else {
            None
        }
    }

    /// Performs the architectural side of interrupt entry: saves `pc` to
    /// `mepc`, records `cause`, stashes MIE into MPIE and clears MIE.
    /// Returns the trap-vector target.
    pub fn enter_trap(&mut self, pc: u32, cause: u32) -> u32 {
        self.mepc = pc;
        self.mcause = cause;
        let mie = (self.mstatus >> 3) & 1;
        self.mstatus = (self.mstatus & !(csr::MSTATUS_MIE | csr::MSTATUS_MPIE))
            | (mie << 7)
            | csr::MSTATUS_MPP;
        self.mtvec
    }

    /// Performs the architectural side of `mret`: restores MIE from MPIE
    /// and returns the resume address (`mepc`).
    pub fn exit_trap(&mut self) -> u32 {
        let mpie = (self.mstatus >> 7) & 1;
        self.mstatus = (self.mstatus & !csr::MSTATUS_MIE) | (mpie << 3) | csr::MSTATUS_MPIE;
        self.mepc
    }

    /// Serializes the CSRs for a machine-state snapshot. `mhartid` is
    /// wiring the SMP composition sets, not state.
    pub fn to_snap(&self) -> Json {
        Json::object()
            .with("mstatus", self.mstatus)
            .with("mie", self.mie)
            .with("mip", self.mip)
            .with("mtvec", self.mtvec)
            .with("mepc", self.mepc)
            .with("mcause", self.mcause)
            .with("mscratch", self.mscratch)
    }

    /// Rebuilds the CSR file from [`to_snap`](Self::to_snap) output, with
    /// `mhartid` 0 until a composition attaches the hart.
    ///
    /// # Errors
    ///
    /// Fails on missing or non-integer fields.
    pub fn from_snap(value: &Json) -> Result<Csrs, SnapError> {
        Ok(Csrs {
            mstatus: snap::get_u32(value, "mstatus")?,
            mie: snap::get_u32(value, "mie")?,
            mip: snap::get_u32(value, "mip")?,
            mtvec: snap::get_u32(value, "mtvec")?,
            mepc: snap::get_u32(value, "mepc")?,
            mcause: snap::get_u32(value, "mcause")?,
            mscratch: snap::get_u32(value, "mscratch")?,
            mhartid: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_entry_and_exit_toggle_mie() {
        let mut c = Csrs {
            mstatus: csr::MSTATUS_MIE,
            mtvec: 0x100,
            ..Csrs::default()
        };
        let target = c.enter_trap(0x2000, csr::CAUSE_TIMER);
        assert_eq!(target, 0x100);
        assert_eq!(c.mepc, 0x2000);
        assert!(!c.mie_enabled());
        assert_eq!(c.mstatus & csr::MSTATUS_MPIE, csr::MSTATUS_MPIE);
        let resume = c.exit_trap();
        assert_eq!(resume, 0x2000);
        assert!(c.mie_enabled());
    }

    #[test]
    fn interrupt_priority_order() {
        let mut c = Csrs {
            mie: csr::MIP_MTIP | csr::MIP_MSIP | csr::MIP_MEIP,
            ..Csrs::default()
        };
        c.mip = csr::MIP_MTIP;
        assert_eq!(c.pending_interrupt(), Some(csr::CAUSE_TIMER));
        c.mip |= csr::MIP_MSIP;
        assert_eq!(c.pending_interrupt(), Some(csr::CAUSE_SOFTWARE));
        c.mip |= csr::MIP_MEIP;
        assert_eq!(c.pending_interrupt(), Some(csr::CAUSE_EXTERNAL));
    }

    #[test]
    fn masked_interrupts_do_not_fire() {
        let mut c = Csrs {
            mip: csr::MIP_MTIP,
            ..Csrs::default()
        };
        assert_eq!(c.pending_interrupt(), None);
        c.mie = csr::MIP_MTIP;
        assert_eq!(c.pending_interrupt(), Some(csr::CAUSE_TIMER));
    }

    #[test]
    fn mip_write_is_ignored() {
        let mut c = Csrs::default();
        c.write(csr::MIP, 0xffff_ffff);
        assert_eq!(c.mip, 0);
    }
}
