//! FSM-2's tuple wiring, resolved once per elaborated design.
//!
//! In hardware, which window tap, static-bank port or boundary constant
//! feeds each stencil point of each element is fixed when the buffers are
//! synthesised. [`SourceTable`] is that wiring for the simulator: built
//! once from [`BufferPlan::sources_for`] when a module is elaborated, then
//! read by index every cycle. It is never part of the plan itself (the plan
//! is what schedule keys format), and the stages of a temporal pipeline
//! share one table.

use smache_sim::{Word, MAX_GATHER_WIDTH};

use crate::config::{BufferPlan, SourceRef};
use crate::error::CoreError;
use crate::CoreResult;

/// One stencil point's source, packed into 8 bytes. Boundary constants live
/// in the table's side list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSlot {
    /// Skipped under an open boundary: reads as zero, mask bit clear.
    Hole,
    /// A stream-buffer tap at this window position.
    Tap(u32),
    /// A static-bank read: the bank, its read port and the word slot.
    Static {
        /// Static buffer id.
        bank: u16,
        /// BRAM read port (0 or 1).
        port: u8,
        /// Word index within the buffer.
        slot: u32,
    },
    /// Index into [`SourceTable::consts`].
    Const(u32),
}

const _: () = assert!(std::mem::size_of::<SourceSlot>() == 8);

/// Every element's resolved sources: `width` slots per element in element
/// order, the per-element kernel mask, and the boundary constants.
#[derive(Debug, Clone, Default)]
pub struct SourceTable {
    width: usize,
    slots: Vec<SourceSlot>,
    masks: Vec<u64>,
    consts: Vec<Word>,
}

fn narrow<T: TryFrom<usize>>(v: usize, what: &str, e: usize) -> CoreResult<T> {
    T::try_from(v).map_err(|_| {
        CoreError::Config(format!(
            "element {e}: {what} {v} exceeds the source table's field width"
        ))
    })
}

/// The bank index of static buffer `id`: banks are instantiated in plan
/// order, so the id must name its own position.
fn static_bank(plan: &BufferPlan, id: usize, e: usize) -> CoreResult<u16> {
    if plan.static_buffers.get(id).map(|b| b.id) != Some(id) {
        return Err(CoreError::Config(format!(
            "element {e} reads static buffer {id}, which is not at index {id} of the plan"
        )));
    }
    narrow(id, "static buffer", e)
}

impl SourceTable {
    /// Resolves every element of `plan` once. Fails with the resolver's
    /// typed [`CoreError::Config`] (an element no range covers, a
    /// statified offset no static buffer serves, more than two reads of
    /// one static buffer, a buffer id that does not name its bank) — at
    /// elaboration, never mid-run.
    pub fn build(plan: &BufferPlan) -> CoreResult<SourceTable> {
        let n = plan.grid.len();
        let width = plan.shape.len();
        if width > MAX_GATHER_WIDTH {
            return Err(CoreError::Config(format!(
                "{width}-point shape exceeds the {MAX_GATHER_WIDTH}-bit kernel mask"
            )));
        }
        let mut table = SourceTable {
            width,
            slots: Vec::with_capacity(n * width),
            masks: Vec::with_capacity(n),
            consts: Vec::new(),
        };
        let mut sources = Vec::with_capacity(width);
        for e in 0..n {
            plan.sources_for(e, &mut sources)?;
            let mut mask = 0u64;
            for (p, src) in sources.iter().enumerate() {
                let slot = match *src {
                    None => SourceSlot::Hole,
                    Some(SourceRef::Tap { pos }) => SourceSlot::Tap(narrow(pos, "tap", e)?),
                    Some(SourceRef::Static { buffer, slot, port }) => SourceSlot::Static {
                        bank: static_bank(plan, buffer, e)?,
                        port: narrow(port, "port", e)?,
                        slot: narrow(slot, "static slot", e)?,
                    },
                    Some(SourceRef::Constant(v)) => {
                        table.consts.push(v);
                        SourceSlot::Const(narrow(table.consts.len() - 1, "constant", e)?)
                    }
                };
                if slot != SourceSlot::Hole {
                    mask |= 1 << p;
                }
                table.slots.push(slot);
            }
            table.masks.push(mask);
        }
        table.consts.shrink_to_fit();
        Ok(table)
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// True when the table covers no elements.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Stencil points per element.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Element `e`'s slots, one per shape point.
    #[inline]
    pub fn row(&self, e: usize) -> &[SourceSlot] {
        &self.slots[e * self.width..(e + 1) * self.width]
    }

    /// Element `e`'s kernel mask: bit `p` set when point `p` is present.
    #[inline]
    pub fn mask(&self, e: usize) -> u64 {
        self.masks[e]
    }

    /// The boundary constants [`SourceSlot::Const`] indexes.
    #[inline]
    pub fn consts(&self) -> &[Word] {
        &self.consts
    }

    /// Expands element `e`'s row back into the resolver's form (what
    /// [`BufferPlan::sources_for`] returned for it).
    pub fn sources(&self, e: usize, out: &mut Vec<Option<SourceRef>>) {
        out.clear();
        out.extend(self.row(e).iter().map(|s| match *s {
            SourceSlot::Hole => None,
            SourceSlot::Tap(pos) => Some(SourceRef::Tap { pos: pos as usize }),
            SourceSlot::Static { bank, port, slot } => Some(SourceRef::Static {
                buffer: bank as usize,
                slot: slot as usize,
                port: port as usize,
            }),
            SourceSlot::Const(i) => Some(SourceRef::Constant(self.consts[i as usize])),
        }));
    }
}
