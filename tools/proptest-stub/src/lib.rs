//! The slice of `proptest` this repository's tests use, without shrinking:
//! half-open numeric ranges, `any::<bool | u8 | u32>()`,
//! `collection::vec`, `ProptestConfig::with_cases`, `prop_assert*`,
//! `prop_assume!` and the `proptest!` macro. Cases come from a fixed-seed
//! splitmix64 stream, so a failure repeats exactly.

/// Fixed-seed generator behind every strategy.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut Rng) -> Self::Value;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
int_range!(u8, u32, u64, usize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let v = self.start + (self.end - self.start) * unit as $t;
                if v < self.end { v } else { self.start }
            }
        }
    )*};
}
float_range!(f32, f64);

pub trait Arbitrary {
    fn arbitrary(rng: &mut Rng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut Rng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut Rng) -> u32 {
        rng.next_u64() as u32
    }
}

pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    use super::{Rng, Strategy};

    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut Rng) -> Self::Value {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Rejects the case: the generated closure returns early.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    (@fns ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::Rng::new(0xADC0_FFEE);
            for _ in 0..cfg.cases {
                $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)*
                (move || $body)();
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::test_runner::Config::default()) $($rest)*);
    };
}
