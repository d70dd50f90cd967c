//! The unidirectional 2D torus NoC with dimension-ordered routing and
//! bufferless (drop-on-collision) switches.
//!
//! Because the compute domain is deterministic and the program repeats every
//! Vcycle, the link-occupancy pattern of Vcycle *n* is identical to Vcycle 0.
//! The model therefore performs full link-level collision validation during
//! the first Vcycle and uses precomputed arrival offsets afterwards.

use std::collections::HashMap;

use manticore_isa::{CoreId, MachineConfig, Reg};

/// One hop resource: the output link of a switch, or the delivery port into
/// a core (switch → instruction-memory write port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LinkId {
    /// The +x output link of the switch at the given core.
    XPlus(CoreId),
    /// The +y output link of the switch at the given core.
    YPlus(CoreId),
    /// The write port into the core's instruction memory.
    Delivery(CoreId),
}

/// A message in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Message {
    pub target: CoreId,
    pub rd: Reg,
    pub value: u16,
    /// Compute-domain time at which the message is delivered.
    pub arrive_at: u64,
}

/// A detected link collision (two messages claiming a link in one cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collision {
    /// Human-readable description of the contended resource.
    pub link: String,
    /// Position within the Vcycle at which the collision occurs.
    pub position: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct Noc {
    grid_width: usize,
    grid_height: usize,
    hop_latency: u64,
    injection_latency: u64,
    /// Link reservations keyed by `(link, position-in-vcycle)`; only
    /// populated during the validation (first) Vcycle, and cleared when
    /// it completes — nothing reads them afterwards. `pub(crate)` so the
    /// persistence layer can carry them across a save/load: a machine
    /// that faulted in its validation Vcycle keeps them, and files saved
    /// by older builds, which kept them after validation, still load.
    pub(crate) reservations: HashMap<(LinkId, u64), CoreId>,
    /// Messages in flight, sorted by arrival through BinaryHeap-free scan
    /// (counts are tiny per cycle).
    pub in_flight: Vec<Message>,
}

impl Noc {
    pub fn new(config: &MachineConfig) -> Self {
        Noc {
            grid_width: config.grid_width,
            grid_height: config.grid_height,
            hop_latency: config.hop_latency as u64,
            injection_latency: config.injection_latency as u64,
            reservations: HashMap::new(),
            in_flight: Vec::new(),
        }
    }

    /// The dimension-ordered (X then Y) path from `from` to `to` as a list
    /// of output links, in traversal order.
    pub fn path(&self, from: CoreId, to: CoreId) -> Vec<LinkId> {
        let mut links = Vec::new();
        let mut x = from.x as usize;
        let mut y = from.y as usize;
        while x != to.x as usize {
            links.push(LinkId::XPlus(CoreId::new(x as u8, y as u8)));
            x = (x + 1) % self.grid_width;
        }
        while y != to.y as usize {
            links.push(LinkId::YPlus(CoreId::new(x as u8, y as u8)));
            y = (y + 1) % self.grid_height;
        }
        links.push(LinkId::Delivery(to));
        links
    }

    /// Injects a message sent at compute time `now` (Vcycle position `pos`).
    ///
    /// During the validation Vcycle (`validate = true`) every hop reserves
    /// its link; a conflicting reservation is reported as a collision —
    /// on the real bufferless switches the message would be dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn send(
        &mut self,
        from: CoreId,
        target: CoreId,
        rd: Reg,
        value: u16,
        now: u64,
        pos: u64,
        validate: bool,
    ) -> Result<(), Collision> {
        let path = self.path(from, target);
        let first_link_at = now + self.injection_latency;
        if validate {
            for (i, link) in path.iter().enumerate() {
                let at = pos + self.injection_latency + i as u64 * self.hop_latency;
                if let Some(prev) = self.reservations.insert((*link, at), from) {
                    if prev != from {
                        return Err(Collision {
                            link: format!("{link:?}"),
                            position: at,
                        });
                    }
                    // Same sender reserving the same link twice in one cycle
                    // means two of its own messages collide.
                    return Err(Collision {
                        link: format!("{link:?} (self)"),
                        position: at,
                    });
                }
            }
        }
        let hops = (path.len() - 1) as u64; // last entry is the delivery port
        let arrive_at = first_link_at + hops * self.hop_latency;
        self.in_flight.push(Message {
            target,
            rd,
            value,
            arrive_at,
        });
        Ok(())
    }

    /// Removes all messages due at or before `now` into `due`, in arrival
    /// order (stable for equal times: injection order). `due` must be
    /// empty; the caller owns it so the per-position scan of a hot Vcycle
    /// loop can reuse one buffer instead of allocating per position.
    ///
    /// A single stable partition: `retain` keeps the not-yet-due messages
    /// in injection order and hands the due ones over in injection order,
    /// so the stable sort by arrival time preserves injection order among
    /// equal arrivals — O(n + d log d) instead of the O(n·d) that
    /// element-wise `Vec::remove` would cost per position.
    pub fn take_due_into(&mut self, now: u64, due: &mut Vec<Message>) {
        debug_assert!(due.is_empty(), "take_due_into expects a drained buffer");
        self.in_flight.retain(|m| {
            if m.arrive_at <= now {
                due.push(*m);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|m| m.arrive_at);
    }

    /// Allocating convenience form of [`Noc::take_due_into`].
    #[cfg(test)]
    pub fn take_due(&mut self, now: u64) -> Vec<Message> {
        let mut due: Vec<Message> = Vec::new();
        self.take_due_into(now, &mut due);
        due
    }
}
