//! Offline stand-in for `serde` (see ../README.md). The program derives
//! `Serialize`/`Deserialize` on its plain-data types but renders its JSON
//! by hand and never calls a serializer, so here the traits are markers
//! and the derives expand to nothing.

/// Marker for serializable types.
pub trait Serialize {}

/// Marker for deserializable types.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
