//! Saving and loading trained parameters.
//!
//! Experiments often want to train a reference network once and then deploy
//! it onto many simulated chips (the `fault_sensitivity` and
//! `remap_recovery` benches do exactly this). The format is a tiny
//! self-describing binary container — magic, version, then per weight-layer
//! the shape, weights, and bias — deliberately independent of the layer
//! *types*, so any same-topology network can receive the parameters.
//!
//! The format stores only parameters, not architecture: the loader checks
//! that shapes match and refuses anything else.

use std::io::{self, Read, Write};

use crate::error::NnError;
use crate::network::Network;

const MAGIC: &[u8; 8] = b"RRAMFTT1";

/// Writes all weight-layer parameters of `net` to `writer`.
///
/// Pass `&mut file` for writers you want back afterwards.
///
/// # Errors
///
/// Returns any I/O error from the writer.
///
/// # Example
///
/// ```
/// use nn::network::Network;
/// use nn::layers::Dense;
/// use nn::init::init_rng;
/// use nn::serialize::{load_parameters, save_parameters};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = init_rng(0);
/// let mut net = Network::new();
/// net.push(Dense::new(4, 2, &mut rng));
///
/// let mut buf = Vec::new();
/// save_parameters(&mut net, &mut buf)?;
///
/// let mut fresh = Network::new();
/// fresh.push(Dense::new(4, 2, &mut init_rng(99)));
/// load_parameters(&mut fresh, buf.as_slice())?;
/// # Ok(())
/// # }
/// ```
pub fn save_parameters<W: Write>(net: &mut Network, mut writer: W) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    let indices = net.weight_layer_indices();
    writer.write_all(&(indices.len() as u32).to_le_bytes())?;
    for idx in indices {
        #[expect(
            clippy::expect_used,
            reason = "`weight_layer_indices` only lists layers with parameters; `None` is an \
                      internal invariant violation"
        )]
        let params = net
            .layer_params_mut(idx)
            .expect("weight_layer_indices returned a parameterless layer");
        let (rows, cols) = params.weight_shape;
        writer.write_all(&(rows as u32).to_le_bytes())?;
        writer.write_all(&(cols as u32).to_le_bytes())?;
        for &w in params.weights.iter() {
            writer.write_all(&w.to_le_bytes())?;
        }
        match params.bias {
            Some(bias) => {
                writer.write_all(&(bias.len() as u32).to_le_bytes())?;
                for &b in bias.iter() {
                    writer.write_all(&b.to_le_bytes())?;
                }
            }
            None => writer.write_all(&0u32.to_le_bytes())?,
        }
    }
    Ok(())
}

/// Loads parameters saved by [`save_parameters`] into a same-topology
/// network.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] on a bad magic/shape mismatch, or a
/// wrapped description of any I/O error.
pub fn load_parameters<R: Read>(net: &mut Network, mut reader: R) -> Result<(), NnError> {
    let io_err = |e: io::Error| NnError::InvalidConfig(format!("read failed: {e}"));
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(NnError::InvalidConfig(
            "not an rram-ftt parameter file".into(),
        ));
    }
    let layer_count = read_u32(&mut reader).map_err(io_err)? as usize;
    let indices = net.weight_layer_indices();
    if layer_count != indices.len() {
        return Err(NnError::InvalidConfig(format!(
            "file has {layer_count} weight layers, network has {}",
            indices.len()
        )));
    }
    for idx in indices {
        let rows = read_u32(&mut reader).map_err(io_err)? as usize;
        let cols = read_u32(&mut reader).map_err(io_err)? as usize;
        #[expect(
            clippy::expect_used,
            reason = "`weight_layer_indices` only lists layers with parameters; `None` is an \
                      internal invariant violation"
        )]
        let params = net
            .layer_params_mut(idx)
            .expect("weight_layer_indices returned a parameterless layer");
        if params.weight_shape != (rows, cols) {
            return Err(NnError::InvalidConfig(format!(
                "layer {idx}: file shape ({rows}, {cols}) vs network {:?}",
                params.weight_shape
            )));
        }
        // Re-borrow mutably after the shape check to write into the layer.
        let mut buf = [0u8; 4];
        for w in params.weights.iter_mut() {
            reader.read_exact(&mut buf).map_err(io_err)?;
            *w = f32::from_le_bytes(buf);
        }
        let bias_len = {
            let mut b = [0u8; 4];
            reader.read_exact(&mut b).map_err(io_err)?;
            u32::from_le_bytes(b) as usize
        };
        match params.bias {
            Some(bias) => {
                if bias.len() != bias_len {
                    return Err(NnError::InvalidConfig(format!(
                        "layer {idx}: file bias length {bias_len} vs network {}",
                        bias.len()
                    )));
                }
                for b in bias.iter_mut() {
                    reader.read_exact(&mut buf).map_err(io_err)?;
                    *b = f32::from_le_bytes(buf);
                }
            }
            None if bias_len == 0 => {}
            None => {
                return Err(NnError::InvalidConfig(format!(
                    "layer {idx}: file has a bias, network layer does not"
                )))
            }
        }
    }
    Ok(())
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_rng;
    use crate::layers::{Dense, Relu};
    use crate::tensor::Tensor;

    fn net(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        let mut n = Network::new();
        n.push(Dense::new(6, 8, &mut rng));
        n.push(Relu::new());
        n.push(Dense::new(8, 3, &mut rng));
        n
    }

    #[test]
    fn roundtrip_restores_function() {
        let mut original = net(1);
        let mut buf = Vec::new();
        save_parameters(&mut original, &mut buf).unwrap();

        let mut fresh = net(99); // different init
        load_parameters(&mut fresh, buf.as_slice()).unwrap();

        let x = Tensor::from_vec(vec![2, 6], (0..12).map(|i| (i as f32).cos()).collect());
        assert_eq!(original.forward(&x).data(), fresh.forward(&x).data());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut fresh = net(1);
        let err = load_parameters(&mut fresh, &b"NOTAFILE????"[..]);
        assert!(err.is_err());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut original = net(1);
        let mut buf = Vec::new();
        save_parameters(&mut original, &mut buf).unwrap();
        let mut rng = init_rng(2);
        let mut other = Network::new();
        other.push(Dense::new(6, 9, &mut rng)); // wrong width
        other.push(Dense::new(9, 3, &mut rng));
        assert!(load_parameters(&mut other, buf.as_slice()).is_err());
    }

    #[test]
    fn layer_count_mismatch_is_rejected() {
        let mut original = net(1);
        let mut buf = Vec::new();
        save_parameters(&mut original, &mut buf).unwrap();
        let mut rng = init_rng(2);
        let mut other = Network::new();
        other.push(Dense::new(6, 3, &mut rng));
        assert!(load_parameters(&mut other, buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut original = net(1);
        let mut buf = Vec::new();
        save_parameters(&mut original, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut fresh = net(1);
        assert!(load_parameters(&mut fresh, buf.as_slice()).is_err());
    }
}
