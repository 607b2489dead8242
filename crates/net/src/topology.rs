//! Cells, base stations and mobile clients (the paper's Figure 1).
//!
//! The geographic area is divided into cells; each cell has one base
//! station. Mobile clients connect to the base station of the cell they
//! are in, may disconnect at any time, and may move ("hand off") to a
//! neighbouring cell — which is why the paper insists the base station
//! "must serve client requests in a timely manner".

use std::fmt;

/// Identifier of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

/// Identifier of a mobile client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl ClientId {
    /// The id as a `usize` index into per-client tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// A mobile client's connectivity state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MobileClient {
    /// The client's identifier.
    pub id: ClientId,
    /// The cell the client is currently in.
    pub cell: CellId,
    /// Whether the client is currently connected to its cell's base
    /// station.
    pub connected: bool,
}

/// Errors from topology operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Referenced a client id that was never registered.
    UnknownClient(ClientId),
    /// Referenced a cell id outside the topology.
    UnknownCell(CellId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownClient(c) => write!(f, "unknown {c}"),
            Self::UnknownCell(c) => write!(f, "unknown cell#{}", c.0),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The static cell layout plus dynamic client membership.
#[derive(Debug, Clone)]
pub struct Topology {
    cells: u32,
    clients: Vec<MobileClient>,
    handoffs: u64,
    disconnects: u64,
}

impl Topology {
    /// A topology with `cells` cells (base station `i` serves cell `i`)
    /// and no clients.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    pub fn new(cells: u32) -> Self {
        assert!(cells > 0, "a topology needs at least one cell");
        Self {
            cells,
            clients: Vec::new(),
            handoffs: 0,
            disconnects: 0,
        }
    }

    /// Number of cells.
    pub fn cells(&self) -> u32 {
        self.cells
    }

    /// Register a new connected client in `cell`; ids are dense.
    pub fn add_client(&mut self, cell: CellId) -> Result<ClientId, TopologyError> {
        if cell.0 >= self.cells {
            return Err(TopologyError::UnknownCell(cell));
        }
        let id = ClientId(self.clients.len() as u32);
        self.clients.push(MobileClient {
            id,
            cell,
            connected: true,
        });
        Ok(id)
    }

    /// Look up a client.
    pub fn client(&self, id: ClientId) -> Result<&MobileClient, TopologyError> {
        self.clients
            .get(id.index())
            .ok_or(TopologyError::UnknownClient(id))
    }

    /// All registered clients.
    pub fn clients(&self) -> &[MobileClient] {
        &self.clients
    }

    /// Clients currently connected in `cell`.
    pub fn connected_in(&self, cell: CellId) -> impl Iterator<Item = &MobileClient> {
        self.clients
            .iter()
            .filter(move |c| c.connected && c.cell == cell)
    }

    /// Move a client to another cell (handoff). A disconnected client may
    /// hand off; it reconnects in the new cell only via [`Self::reconnect`].
    pub fn hand_off(&mut self, id: ClientId, to: CellId) -> Result<(), TopologyError> {
        if to.0 >= self.cells {
            return Err(TopologyError::UnknownCell(to));
        }
        let client = self
            .clients
            .get_mut(id.index())
            .ok_or(TopologyError::UnknownClient(id))?;
        if client.cell != to {
            client.cell = to;
            self.handoffs += 1;
        }
        Ok(())
    }

    /// Disconnect a client from its base station.
    pub fn disconnect(&mut self, id: ClientId) -> Result<(), TopologyError> {
        let client = self
            .clients
            .get_mut(id.index())
            .ok_or(TopologyError::UnknownClient(id))?;
        if client.connected {
            client.connected = false;
            self.disconnects += 1;
        }
        Ok(())
    }

    /// Reconnect a client to the base station of its current cell.
    pub fn reconnect(&mut self, id: ClientId) -> Result<(), TopologyError> {
        let client = self
            .clients
            .get_mut(id.index())
            .ok_or(TopologyError::UnknownClient(id))?;
        client.connected = true;
        Ok(())
    }

    /// Total handoffs performed.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Total disconnect events.
    pub fn disconnects(&self) -> u64 {
        self.disconnects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_register_densely_and_connect() {
        let mut topo = Topology::new(2);
        let a = topo.add_client(CellId(0)).unwrap();
        let b = topo.add_client(CellId(1)).unwrap();
        assert_eq!(a, ClientId(0));
        assert_eq!(b, ClientId(1));
        assert_eq!(topo.connected_in(CellId(0)).count(), 1);
    }

    #[test]
    fn handoff_moves_between_cells() {
        let mut topo = Topology::new(3);
        let c = topo.add_client(CellId(0)).unwrap();
        topo.hand_off(c, CellId(2)).unwrap();
        assert_eq!(topo.client(c).unwrap().cell, CellId(2));
        assert_eq!(topo.connected_in(CellId(0)).count(), 0);
        assert_eq!(topo.connected_in(CellId(2)).count(), 1);
        assert_eq!(topo.handoffs(), 1);
        // Handoff to the same cell is a no-op.
        topo.hand_off(c, CellId(2)).unwrap();
        assert_eq!(topo.handoffs(), 1);
    }

    #[test]
    fn disconnect_and_reconnect_track_membership() {
        let mut topo = Topology::new(1);
        let c = topo.add_client(CellId(0)).unwrap();
        topo.disconnect(c).unwrap();
        assert_eq!(topo.connected_in(CellId(0)).count(), 0);
        assert_eq!(topo.disconnects(), 1);
        // Double disconnect does not double count.
        topo.disconnect(c).unwrap();
        assert_eq!(topo.disconnects(), 1);
        topo.reconnect(c).unwrap();
        assert_eq!(topo.connected_in(CellId(0)).count(), 1);
    }

    #[test]
    fn errors_on_unknown_ids() {
        let mut topo = Topology::new(1);
        assert!(matches!(
            topo.add_client(CellId(5)),
            Err(TopologyError::UnknownCell(CellId(5)))
        ));
        assert!(matches!(
            topo.client(ClientId(0)),
            Err(TopologyError::UnknownClient(ClientId(0)))
        ));
        assert!(matches!(
            topo.hand_off(ClientId(3), CellId(0)),
            Err(TopologyError::UnknownClient(ClientId(3)))
        ));
        let c = topo.add_client(CellId(0)).unwrap();
        assert!(matches!(
            topo.hand_off(c, CellId(9)),
            Err(TopologyError::UnknownCell(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cell_topology_is_rejected() {
        let _ = Topology::new(0);
    }
}
