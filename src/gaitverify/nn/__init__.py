"""Minimal neural-network substrate: layers, losses, Adam, training, gradcheck."""
