//! Declarative wire codec: the [`Wire`] trait plus the `impl_wire!` and
//! `impl_message_codec!` macros that generate every message variant's
//! encode/decode from one table.
//!
//! [`Wire`] is the per-type codec contract: `put` appends the XDR image,
//! `get` parses it back. Primitives, strings, options, tuples, and vectors
//! get impls here; protocol structs and enums declare theirs through
//! `impl_wire!`, and the `Message` enum itself is generated by
//! `impl_message_codec!` in `message.rs`. Because the whole codec flows
//! through one trait, the numeric-array fast paths in `ninf-xdr` (chunked
//! byteswap encode, exact-size-iterator decode) are picked up by every
//! message that ships a matrix — there is no per-variant hand loop left to
//! drift out of sync.
//!
//! A macro expansion cannot place an expression in match-*pattern* position,
//! so the generated decoders use tag-comparison chains while the encoders
//! keep a real `match` — exhaustive, with no wildcard arm, so adding an enum
//! variant without a table entry is a compile error.

use ninf_xdr::{XdrDecoder, XdrEncoder, XdrSink};

use crate::error::{ProtocolError, ProtocolResult};

/// Symmetric XDR codec for one wire type.
pub trait Wire: Sized {
    /// Append this value's XDR image to any sink.
    fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>);
    /// Parse one value, consuming exactly its image.
    fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self>;
}

macro_rules! impl_wire_prim {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
                enc.$put(*self);
            }
            #[inline]
            fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
                Ok(dec.$get()?)
            }
        }
    )*};
}

impl_wire_prim! {
    u32 => put_u32, get_u32;
    i32 => put_i32, get_i32;
    u64 => put_u64, get_u64;
    i64 => put_i64, get_i64;
    f32 => put_f32, get_f32;
    f64 => put_f64, get_f64;
    bool => put_bool, get_bool;
}

impl Wire for String {
    #[inline]
    fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_string(self);
    }
    #[inline]
    fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
        Ok(dec.get_string()?)
    }
}

/// Numeric vectors delegate to the `ninf-xdr` array fast paths (chunked
/// big-endian byteswap on encode, hostile-length-guarded bulk decode).
/// These are dedicated impls — not a blanket `Vec<T: Wire>` — so the hot
/// matrix path never degrades to a per-element trait-object loop.
macro_rules! impl_wire_fast_array {
    ($($el:ty => $put:ident, $get:ident;)*) => {$(
        impl Wire for Vec<$el> {
            #[inline]
            fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
                enc.$put(self);
            }
            #[inline]
            fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
                Ok(dec.$get()?)
            }
        }
    )*};
}

impl_wire_fast_array! {
    f64 => put_f64_array, get_f64_array;
    f32 => put_f32_array, get_f32_array;
    i32 => put_i32_array, get_i32_array;
    i64 => put_i64_array, get_i64_array;
}

/// Raw byte strings travel as XDR opaques (length-prefixed, padded to a
/// 4-byte boundary) — the chunked-transfer payload path. A dedicated
/// impl for the same coherence reason as the numeric fast paths above.
impl Wire for Vec<u8> {
    #[inline]
    fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_opaque(self);
    }
    #[inline]
    fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
        Ok(dec.get_opaque()?.to_vec())
    }
}

/// Length-prefixed vector of compound elements.
pub(crate) fn put_vec<T: Wire, S: XdrSink>(enc: &mut XdrEncoder<S>, items: &[T]) {
    enc.put_u32(items.len() as u32);
    for item in items {
        item.put(enc);
    }
}

/// Decode a length-prefixed vector. Every element occupies at least one
/// 4-byte XDR word, so a claimed count beyond `remaining / 4` cannot be
/// satisfied and is rejected before any allocation; the preallocation is
/// additionally capped so a hostile-but-plausible count cannot reserve
/// unbounded memory up front.
pub(crate) fn get_vec<T: Wire>(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Vec<T>> {
    get_seq(dec, T::get)
}

/// [`get_vec`] with each element read by `item`.
pub(crate) fn get_seq<'a, T>(
    dec: &mut XdrDecoder<'a>,
    mut item: impl FnMut(&mut XdrDecoder<'a>) -> ProtocolResult<T>,
) -> ProtocolResult<Vec<T>> {
    let n = dec.get_u32()? as usize;
    if n > dec.remaining() / 4 {
        return Err(ProtocolError::Frame(format!(
            "vector length {n} overruns frame"
        )));
    }
    let mut out = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        out.push(item(dec)?);
    }
    Ok(out)
}

/// Compound-element vectors, enumerated per element type: Rust coherence
/// forbids a blanket `Vec<T: Wire>` impl alongside the numeric fast-path
/// impls above, so the element types that actually cross the wire are
/// listed here.
macro_rules! impl_wire_vec {
    ($($el:ty),* $(,)?) => {$(
        impl Wire for Vec<$el> {
            fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
                put_vec(enc, self);
            }
            fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
                get_vec(dec)
            }
        }
    )*};
}

impl_wire_vec!(
    crate::value::Value,
    crate::message::CallStat,
    crate::digest::Digest,
    ninf_obs::Span,
    ninf_obs::MetricSample,
    ninf_obs::MetricFrame,
    (String, String),
);

/// XDR optional: a u32 presence word (0 or 1) then the value. Any other
/// word is corruption, not a decodable state.
impl<T: Wire> Wire for Option<T> {
    fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        match self {
            Some(v) => {
                enc.put_u32(1);
                v.put(enc);
            }
            None => enc.put_u32(0),
        }
    }
    fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
        match dec.get_u32()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(dec)?)),
            other => Err(ProtocolError::Frame(format!("bad presence flag {other}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        self.0.put(enc);
        self.1.put(enc);
    }
    fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
        Ok((A::get(dec)?, B::get(dec)?))
    }
}

/// Generate a [`Wire`] impl from a one-table declaration.
///
/// Three shapes:
///
/// - `struct Ty { field, ... }` — fields encode in declaration order;
/// - `enum Name { Variant = tag (payload), ... }` — a u32 tag then the
///   single unnamed payload;
/// - `unit_enum Name { Variant = tag, ... }` — a bare u32 tag.
///
/// The target type needs `pub` fields (or be local); the trait is local, so
/// foreign structs like [`ninf_obs::Span`] are fair game.
macro_rules! impl_wire {
    (struct $ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put<S: ::ninf_xdr::XdrSink>(&self, enc: &mut ::ninf_xdr::XdrEncoder<S>) {
                $( $crate::codec::Wire::put(&self.$field, enc); )+
            }
            fn get(dec: &mut ::ninf_xdr::XdrDecoder<'_>) -> $crate::error::ProtocolResult<Self> {
                Ok(Self {
                    $( $field: $crate::codec::Wire::get(dec)?, )+
                })
            }
        }
    };
    (enum $name:ident { $($variant:ident = $tag:expr),+ $(,)? }) => {
        impl $name {
            /// Decode the payload of the variant whose tag was already
            /// consumed, or `None` if the tag belongs to no variant — so a
            /// wrapping codec (e.g. [`crate::message::Arg`]) can extend the
            /// tag space without re-reading the word.
            pub(crate) fn wire_get_variant(
                tag: u32,
                dec: &mut ::ninf_xdr::XdrDecoder<'_>,
            ) -> $crate::error::ProtocolResult<Option<Self>> {
                $(
                    if tag == $tag {
                        return Ok(Some($name::$variant($crate::codec::Wire::get(dec)?)));
                    }
                )+
                Ok(None)
            }
        }
        impl $crate::codec::Wire for $name {
            fn put<S: ::ninf_xdr::XdrSink>(&self, enc: &mut ::ninf_xdr::XdrEncoder<S>) {
                match self {
                    $(
                        $name::$variant(x) => {
                            enc.put_u32($tag);
                            $crate::codec::Wire::put(x, enc);
                        }
                    )+
                }
            }
            fn get(dec: &mut ::ninf_xdr::XdrDecoder<'_>) -> $crate::error::ProtocolResult<Self> {
                let tag = dec.get_u32()?;
                match Self::wire_get_variant(tag, dec)? {
                    Some(v) => Ok(v),
                    None => Err($crate::error::ProtocolError::Frame(format!(
                        concat!("unknown ", stringify!($name), " tag {}"),
                        tag
                    ))),
                }
            }
        }
    };
    (unit_enum $name:ident { $($variant:ident = $tag:expr),+ $(,)? }) => {
        impl $crate::codec::Wire for $name {
            fn put<S: ::ninf_xdr::XdrSink>(&self, enc: &mut ::ninf_xdr::XdrEncoder<S>) {
                match self {
                    $( $name::$variant => enc.put_u32($tag), )+
                }
            }
            fn get(dec: &mut ::ninf_xdr::XdrDecoder<'_>) -> $crate::error::ProtocolResult<Self> {
                let tag = dec.get_u32()?;
                $(
                    if tag == $tag {
                        return Ok($name::$variant);
                    }
                )+
                Err($crate::error::ProtocolError::Frame(format!(
                    concat!("unknown ", stringify!($name), " tag {}"),
                    tag
                )))
            }
        }
    };
}

pub(crate) use impl_wire;

/// Generate the entire `Message` codec — `kind`, `tag`, `put`, `decode` —
/// from one tag table, split into four homogeneous sections (unit variants,
/// single-payload newtype variants, named-field struct variants, and the
/// two call variants) so each repetition group expands to complete match
/// arms. A call variant (`Invoke`, `SubmitJob`) has the fields `routine`,
/// `args`, `trace` and encodes through [`crate::message::put_call`], the
/// writer a client's borrowed call ([`crate::frame::encode_call`]) shares.
///
/// The `put` and `kind` matches carry **no wildcard arm**: a `Message`
/// variant missing from the table fails to compile. Decode rejects unknown
/// tags and — after the variant parser returns — any trailing bytes, so a
/// frame whose payload is not fully consumed can never yield a message.
macro_rules! impl_message_codec {
    (
        units { $($uvar:ident = $utag:expr),+ $(,)? }
        newtypes { $($nvar:ident = $ntag:expr),+ $(,)? }
        structs { $($svar:ident = $stag:expr => { $($sfield:ident),+ $(,)? }),+ $(,)? }
        calls { $($cvar:ident = $ctag:expr),+ $(,)? }
    ) => {
        impl Message {
            /// Short name for diagnostics.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Message::$uvar => stringify!($uvar), )+
                    $( Message::$nvar(_) => stringify!($nvar), )+
                    $( Message::$svar { .. } => stringify!($svar), )+
                    $( Message::$cvar { .. } => stringify!($cvar), )+
                }
            }

            /// Wire tag of this message.
            pub fn tag(&self) -> u32 {
                match self {
                    $( Message::$uvar => $utag, )+
                    $( Message::$nvar(_) => $ntag, )+
                    $( Message::$svar { .. } => $stag, )+
                    $( Message::$cvar { .. } => $ctag, )+
                }
            }

            /// Write the XDR payload (tag, then body; no frame header) to
            /// any sink.
            pub fn put<S: ::ninf_xdr::XdrSink>(&self, enc: &mut ::ninf_xdr::XdrEncoder<S>) {
                enc.put_u32(self.tag());
                match self {
                    $( Message::$uvar => {} )+
                    $(
                        Message::$nvar(x) => {
                            $crate::codec::Wire::put(x, enc);
                        }
                    )+
                    $(
                        Message::$svar { $($sfield),+ } => {
                            $( $crate::codec::Wire::put($sfield, enc); )+
                        }
                    )+
                    $(
                        Message::$cvar { routine, args, trace } => {
                            $crate::message::put_call(enc, routine, args.len(), trace, |enc| {
                                for arg in args {
                                    $crate::codec::Wire::put(arg, enc);
                                }
                            });
                        }
                    )+
                }
            }

            /// Decode from XDR payload bytes.
            ///
            /// The payload must be *exactly* one message: unknown tags and
            /// trailing bytes are both frame errors.
            pub fn decode(payload: &[u8]) -> $crate::error::ProtocolResult<Message> {
                Self::decode_with(payload, ::std::vec::Vec::new())
            }

            /// [`Message::decode`] of a payload some of whose inline call
            /// arguments are already decoded (the frame check's pass): each
            /// is taken in its position and its bytes only stepped over.
            pub(crate) fn decode_with(
                payload: &[u8],
                decoded: $crate::message::Decoded,
            ) -> $crate::error::ProtocolResult<Message> {
                let mut dec = ::ninf_xdr::XdrDecoder::new(payload);
                let mut decoded = decoded.into_iter();
                let tag = dec.get_u32()?;
                let msg = Self::decode_variant(tag, &mut dec, &mut decoded)?;
                debug_assert!(decoded.as_slice().is_empty(), "every decoded argument is taken");
                if !dec.is_empty() {
                    return Err($crate::error::ProtocolError::Frame(format!(
                        "{} trailing bytes after {}",
                        dec.remaining(),
                        msg.kind()
                    )));
                }
                Ok(msg)
            }

            fn decode_variant(
                tag: u32,
                dec: &mut ::ninf_xdr::XdrDecoder<'_>,
                decoded: &mut <$crate::message::Decoded as ::std::iter::IntoIterator>::IntoIter,
            ) -> $crate::error::ProtocolResult<Message> {
                $(
                    if tag == $utag {
                        return Ok(Message::$uvar);
                    }
                )+
                $(
                    if tag == $ntag {
                        return Ok(Message::$nvar($crate::codec::Wire::get(dec)?));
                    }
                )+
                $(
                    if tag == $stag {
                        // Struct-literal fields evaluate in written order,
                        // which is the table order — the same order encode
                        // walks them.
                        return Ok(Message::$svar {
                            $( $sfield: $crate::codec::Wire::get(dec)?, )+
                        });
                    }
                )+
                $(
                    if tag == $ctag {
                        // `put_call`'s order.
                        return Ok(Message::$cvar {
                            routine: $crate::codec::Wire::get(dec)?,
                            args: $crate::message::get_args(dec, decoded)?,
                            trace: $crate::codec::Wire::get(dec)?,
                        });
                    }
                )+
                Err($crate::error::ProtocolError::Frame(format!(
                    "unknown message tag {tag}"
                )))
            }
        }
    };
}

pub(crate) use impl_message_codec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_rejects_nonbinary_presence_flag() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(2);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            <Option<u64> as Wire>::get(&mut dec),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn hostile_vec_length_rejected_before_allocation() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(u32::MAX);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            <Vec<(String, String)> as Wire>::get(&mut dec),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn vec_length_one_past_remaining_rejected_before_decoding() {
        // Every element takes at least one word, so a count of
        // remaining/4 + 1 cannot fit: the guard refuses it before reading
        // an element (an off-by-one here once admitted a phantom element).
        let mut enc = XdrEncoder::new();
        enc.put_u32(2);
        enc.put_u32(9);
        let wire = enc.finish();
        let err = get_vec::<u32>(&mut XdrDecoder::new(&wire)).unwrap_err();
        assert!(
            err.to_string().contains("vector length 2 overruns"),
            "{err}"
        );

        // A count that exactly fills the frame is accepted.
        let mut enc = XdrEncoder::new();
        enc.put_u32(2);
        enc.put_u32(9);
        enc.put_u32(10);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(get_vec::<u32>(&mut dec).unwrap(), vec![9, 10]);
        assert!(dec.is_empty());
    }

    #[test]
    fn tuple_and_option_roundtrip() {
        let v: Vec<(String, String)> = vec![
            ("dgefa".into(), "LU factorization".into()),
            ("ep".into(), String::new()),
        ];
        let mut enc = XdrEncoder::new();
        v.put(&mut enc);
        Some(42u64).put(&mut enc);
        Option::<u64>::None.put(&mut enc);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(<Vec<(String, String)> as Wire>::get(&mut dec).unwrap(), v);
        assert_eq!(<Option<u64> as Wire>::get(&mut dec).unwrap(), Some(42));
        assert_eq!(<Option<u64> as Wire>::get(&mut dec).unwrap(), None);
        assert!(dec.is_empty());
    }
}
